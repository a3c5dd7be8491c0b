"""Config fuzzing: any config document given to ``solve``, ``simulate`` or
``compare`` ends in exit code 0, 1 or 2, never in a traceback, and a model
key that its family does not take ends in exit code 2."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from splitgrow.cli import main
from conftest import DMAX3_ENTRIES

MODELS = [
    {"family": "preferential", "a": 1.0, "b": 0.0},
    {"family": "uniform", "x": 0.0},
    {"family": "grafting", "alpha": 0.5, "gamma": 0.5},
    {"family": "table", "d_max": 3, "entries": DMAX3_ENTRIES},
    {"family": "rna"},
    {"family": "two-colour-uniform", "a": 1.0, "b": 0.0},
    {"family": "two-colour-grafting", "a": 1.0, "b": 0.5, "alpha0": 0.5},
]
# the keys each family takes besides "family"
PARAMETERS = {
    "preferential": {"a", "b"}, "uniform": {"x"}, "grafting": {"alpha", "gamma"},
    "table": {"d_max", "entries"}, "rna": set(), "two-colour-uniform": {"a", "b"},
    "two-colour-grafting": {"a", "b", "alpha0"},
}
MODEL_KEYS = ("family", "a", "b", "x", "alpha", "gamma", "alpha0", "d_max", "entries",
              "w", "bogus")

# small valid values; t_final, replicas and K are always set, since their
# defaults make a full-size run
VALID = {
    "t_final": st.integers(2, 50), "replicas": st.integers(1, 3),
    "K": st.integers(2, 64), "thin": st.integers(0, 20),
    "seed": st.integers(0, 2 ** 32), "engine": st.sampled_from(["urn", "tree"]),
    "k_check": st.integers(1, 8), "tol": st.sampled_from([1e-13, 1e-8]),
    "z_crit": st.sampled_from([3.0, 5.0]), "force_unsupported": st.booleans(),
}
REQUIRED = ("t_final", "replicas", "K")

JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-3, -1),
    st.floats(-4.0, 4.0), st.sampled_from([float("nan"), float("inf"), 1e300]),
    st.sampled_from(["nosuch", "table", "rna", "grafting"]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5), st.floats(-1.0, 3.0)),
             max_size=4))


@st.composite
def configs(draw):
    """A valid config with up to two model keys and up to two top-level
    keys replaced by junk."""
    model = dict(draw(st.sampled_from(MODELS)))
    for key in draw(st.lists(st.sampled_from(MODEL_KEYS), max_size=2, unique=True)):
        model[key] = draw(JUNK)
    cfg = {"model": model}
    for key, valid in VALID.items():
        if key in REQUIRED or draw(st.booleans()):
            cfg[key] = draw(valid)
    top = [*VALID, "model", "reference_model", "nosuch"]
    for key in draw(st.lists(st.sampled_from(top), max_size=2, unique=True)):
        cfg[key] = draw(JUNK)
    return cfg


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["solve", "simulate", "compare"]), config=configs())
@example(command="solve", config={"model": None, "t_final": 2, "replicas": 1, "K": 2})
@example(command="solve", config={"model": {"family": []}, "t_final": 2, "replicas": 1,
                                  "K": 2, "engine": "tree"})
@example(command="solve", config={"model": {"family": "table", "d_max": float("inf"),
                                            "entries": DMAX3_ENTRIES},
                                  "t_final": 2, "replicas": 1, "K": 2})
@example(command="compare", config={"model": {"family": "uniform", "x": float("inf")},
                                    "t_final": 4, "replicas": 2, "K": 2})
@example(command="compare", config={"model": {"family": "uniform", "x": 1e300},
                                    "t_final": 4, "replicas": 2, "K": 2})
@example(command="solve", config={"model": {"family": "table", "d_max": 1e300,
                                            "entries": DMAX3_ENTRIES},
                                  "t_final": 2, "replicas": 1, "K": 2})
def test_config_never_crashes(command, config):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"SPLITGROW_THREADS": "1"}):
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    model = config["model"]
    if isinstance(model, dict) and isinstance(model.get("family"), str) \
            and set(model) - {"family"} - PARAMETERS.get(model["family"], set(model)):
        assert rc == 2, err.getvalue()
