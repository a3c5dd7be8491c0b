"""Replicated simulation against analytic densities, with z-scores.

Replicas run on independent, reproducibly derived random streams; the
empirical per-degree means and standard errors are joined against the best
analytic reference (closed form here) and reported as z-scores.  The same
machinery backs the ``splitgrow compare`` command, whose exit code makes it
usable as a CI gate.
"""

from splitgrow import ExperimentConfig, compare

cfg = ExperimentConfig(
    model={"family": "preferential", "a": 1.0, "b": 0.0},
    t_final=30_000,
    replicas=16,
    seed=90210,
    k_check=6,
    z_crit=5.0,
)
report = compare(cfg)

print(f"{cfg.replicas} replicas to t = {cfg.t_final}, seed {cfg.seed}")
print(f"config digest {report.config.digest[:16]}...")
print(f"\n  {'k':>2} {'analytic':>12} {'empirical':>12} {'stderr':>10} {'z':>7}")
for row in report.rows[:8]:
    print(f"  {row.k:>2} {row.analytic:>12.8f} {row.emp_mean:>12.8f} "
          f"{row.stderr:>10.2e} {row.z:>7.2f}")

print("\ninvariant checks (worst over replicas):")
for name, val in report.checks:
    print(f"  {name} = {val}")

verdict = "PASS" if report.ok else "FAIL"
print(f"\n{verdict}: all |z| <= {cfg.z_crit} for k <= {cfg.k_check} "
      f"-> {report.ok}")
