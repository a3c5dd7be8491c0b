"""Set-up cost of splitgrow in a fresh interpreter.

Times ``import splitgrow``, then ``build_model`` for each model spec given,
then the condition checks (``validate_model``, or the two-colour reduction)
and ``classify_regime``.  Prints one JSON object of stage seconds, and the
total at reference speed (``setup_s``, see ``speed.py``) and as measured
(``raw_setup_s``).

    python3 perfbench/setup_probe.py SRC_DIR SPECS_JSON
"""

import json
import sys
import time

from speed import SpeedProbe


def main() -> None:
    src, specs = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    probe = SpeedProbe(interval=0.005)
    with probe.sampling():
        t0 = time.perf_counter()
        import splitgrow
        from splitgrow.experiment import build_model
        t1 = time.perf_counter()
        models = [build_model(spec) for spec in specs]
        t2 = time.perf_counter()
        checked = []
        for m in models:
            if isinstance(m, splitgrow.TwoColourModel):
                checked.append(splitgrow.reduce_to_one_colour(m))
            else:
                splitgrow.validate_model(m)
                checked.append(m)
        t3 = time.perf_counter()
        for m in checked:
            splitgrow.classify_regime(m)
        t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_model_s": t2 - t1,
                      "validate_s": t3 - t2, "classify_regime_s": t4 - t3,
                      "raw_setup_s": t4 - t0, "setup_s": probe.rescale(t4 - t0)}))


if __name__ == "__main__":
    main()
