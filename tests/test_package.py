import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import consensuslab as cl
from consensuslab import cli

SRC = str(Path(cl.__file__).resolve().parents[1])

PUBLIC_NAMES = [
    "AdjacencyMatrix", "ConfigError", "Configuration", "ConsensusLabError",
    "Constant", "ContractionReport", "CuckerSmale", "DecayFit",
    "DegenerateDiameter", "DiameterPairSet", "DimensionMismatch",
    "HorizonUncovered", "InvalidPair", "Kernel", "LaplacianMatrix",
    "NonFiniteState", "NonPositiveValue", "PersistenceReport",
    "PiecewiseConstantSignal", "SpanTooShort", "Trajectory", "UnbalancedGraph",
    "Window", "algebraic_connectivity", "certify_eta", "certify_lambda2",
    "check_maximizer_geometry", "degrees", "diameter", "diameter_pairs",
    "dirichlet_energy", "evaluate", "fit_exponential", "gen_blinking_pairs",
    "gen_rotating_star", "integrate", "integrate_batch", "is_balanced",
    "kernel_bounds", "laplacian", "mean", "rescale_dilation", "rhs",
    "scrambling", "variance", "variance_dissipation_residual",
    "window_average", "window_average_batch", "window_contraction",
]


def run_python(code, *args):
    """stdout of `code` run by a fresh interpreter that imports this tree."""
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True).stdout


class TestLazyExports:
    def test_public_names(self):
        assert sorted(cl.__all__) == PUBLIC_NAMES

    def test_each_name_is_its_defining_modules_object(self):
        for name in PUBLIC_NAMES:
            module = import_module(f"consensuslab.{cl._EXPORTS[name]}")
            obj = getattr(cl, name)
            assert obj is vars(module)[name], name
            if getattr(obj, "__module__", "").startswith("consensuslab"):
                assert obj.__module__ == module.__name__, name

    def test_kernels_come_from_kernels_module(self):
        assert {cl._EXPORTS[n] for n in ("Constant", "CuckerSmale", "Kernel")} == {
            "_kernels"}

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from consensuslab import *", namespace)
        assert all(namespace[name] is getattr(cl, name) for name in PUBLIC_NAMES)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cl.no_such_name  # noqa: B018
        assert not hasattr(cl, "no_such_name")

    def test_fresh_package_lists_names_before_loading_them(self):
        out = run_python(
            "import json, sys\n"
            "import consensuslab as cl\n"
            "print(json.dumps([dir(cl), sorted(m for m in sys.modules"
            " if m.startswith('consensuslab.'))]))")
        listed, loaded = json.loads(out)
        assert set(PUBLIC_NAMES) <= set(listed)
        assert loaded == []


def test_certify_loads_only_what_it_runs(tmp_path):
    """A certify run never imports the integrator, the analysis or the float
    text: parse_config and cmd_certify need none of them."""
    data = {
        "system": {"n": 8, "d": 2, "kernel": {"form": "constant", "c": 1.0}},
        "signal": {"type": "blinking_pairs", "dwell": 0.1, "duty": 0.5},
        "window": {"tau": 0.8, "mu": 0.01},
        "run": {"t_end": 2.0},
        "certify": {"kinds": ["eta", "lambda2"]},
        "outputs": {"dir": str(tmp_path)},
    }
    out = run_python(
        "import json, sys\n"
        "from consensuslab import cli\n"
        "bundle = cli.cmd_certify(cli.parse_config(json.loads(sys.argv[1])))\n"
        "print(json.dumps([bundle.exit_code, sorted(sys.modules)]))",
        json.dumps(data))
    exit_code, loaded = json.loads(out)
    assert exit_code == 0
    assert (tmp_path / "persistence_lambda2.json").is_file()
    assert not {"consensuslab.analysis", "consensuslab.dynamics",
                "consensuslab._text"} & set(loaded)


def test_pipelines_never_import_dataclasses(tmp_path):
    """No record is a dataclass, so a simulate and a verify (which load the
    integrator and the analysis) leave `dataclasses` unloaded; numpy alone
    does not load it either."""
    base = {
        "system": {"n": 3, "d": 2, "kernel": {"form": "cucker_smale", "K": 1.0,
                                              "beta": 1.0}},
        "signal": {"type": "rotating_star", "dwell": 0.2},
        "window": {"tau": 0.6, "mu": 0.01},
        "run": {"t_end": 1.2, "dt": 0.01},
    }
    simulate = dict(base, initial=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                    outputs={"dir": str(tmp_path / "simulate")})
    verify = dict(base, sweep={"num_initial": 2},
                  outputs={"dir": str(tmp_path / "verify")})
    out = run_python(
        "import json, sys\n"
        "import numpy\n"
        "loaded = ['dataclasses' in sys.modules]\n"
        "from consensuslab import cli\n"
        "for command, data in zip(('simulate', 'verify'), sys.argv[1:]):\n"
        "    cfg = cli.parse_config(json.loads(data))\n"
        "    cli.COMMANDS[command](cfg)\n"
        "    loaded.append('dataclasses' in sys.modules)\n"
        "print(json.dumps([loaded, sorted(sys.modules)]))",
        json.dumps(simulate), json.dumps(verify))
    loaded, modules = json.loads(out)
    assert loaded == [False, False, False]
    assert {"consensuslab.analysis", "consensuslab.dynamics"} <= set(modules)
    assert (tmp_path / "verify" / "analysis_reports.json").is_file()


RECORDS = [
    pytest.param(lambda: cl.Constant(c=1.5), "Constant(c=1.5)", True, "c",
                 id="Constant"),
    pytest.param(lambda: cl.CuckerSmale(K=1.0, beta=0.5),
                 "CuckerSmale(K=1.0, beta=0.5)", True, "K", id="CuckerSmale"),
    pytest.param(lambda: cl.Window(tau=1.0, mu=0.5), "Window(tau=1.0, mu=0.5)",
                 True, "tau", id="Window"),
    pytest.param(lambda: cl.PersistenceReport(
        kind="scrambling", window=cl.Window(1.0, 0.5), infimum_value=0.5,
        worst_start=0.0, passes=True, checked_starts=3),
        "PersistenceReport(kind='scrambling', window=Window(tau=1.0, mu=0.5), "
        "infimum_value=0.5, worst_start=0.0, passes=True, checked_starts=3)",
        True, "passes", id="PersistenceReport"),
    pytest.param(lambda: cl.AdjacencyMatrix(n=1, entries=[[1.0]]),
                 "AdjacencyMatrix(n=1, entries=array([[1.]]))", None, "entries",
                 id="AdjacencyMatrix"),
    pytest.param(lambda: cl.laplacian(cl.AdjacencyMatrix.ones(1)),
                 "LaplacianMatrix(n=1, entries=array([[0.]]))", False, "n",
                 id="LaplacianMatrix"),
    pytest.param(lambda: cl.PiecewiseConstantSignal(
        n=1, breakpoints=[0.0, 1.0], pieces=np.ones((1, 1, 1)), mode="clamped"),
        "PiecewiseConstantSignal(n=1, breakpoints=array([0., 1.]), "
        "pieces=(AdjacencyMatrix(n=1, entries=array([[1.]])),), mode='clamped')",
        False, "mode", id="PiecewiseConstantSignal"),
    pytest.param(lambda: cl.Configuration(n=1, d=2, positions=[[0.5, -1.0]]),
                 "Configuration(n=1, d=2, positions=array([[ 0.5, -1. ]]))", None,
                 "positions", id="Configuration"),
    pytest.param(lambda: cl.Trajectory(times=[0.0], states=np.zeros((1, 1, 1)),
                                       signal_ref=None, kernel_ref=cl.Constant(1.0)),
                 "Trajectory(times=array([0.]), states=array([[[0.]]]), "
                 "signal_ref=None, kernel_ref=Constant(c=1.0))", False, "times",
                 id="Trajectory"),
    pytest.param(lambda: cl.DecayFit(alpha=1.0, gamma=0.5, rms_log_residual=0.0,
                                     t_range=(0.0, 2.0)),
                 "DecayFit(alpha=1.0, gamma=0.5, rms_log_residual=0.0, "
                 "t_range=(0.0, 2.0))", True, "gamma", id="DecayFit"),
    pytest.param(lambda: cl.ContractionReport(tau=1.0, factors=np.array([0.5]),
                                              kappa_hat=0.5, all_strict=True),
                 "ContractionReport(tau=1.0, factors=array([0.5]), kappa_hat=0.5, "
                 "all_strict=True)", False, "factors", id="ContractionReport"),
    pytest.param(lambda: cl.DiameterPairSet(pairs=frozenset({(0, 1)}), value=1.0),
                 "DiameterPairSet(pairs=frozenset({(0, 1)}), value=1.0)", False,
                 "value", id="DiameterPairSet"),
]


# the records whose constructor is `Record.__init__`
STORING = [cli.ExperimentConfig, cli.OutputBundle, cl.PersistenceReport,
           cl.DecayFit, cl.ContractionReport, cl.DiameterPairSet]


class TestRecords:
    """Every record keeps a frozen dataclass's contract:
    keyword constructors, the dataclass repr, read-only fields, and value
    equality and hashing where the dataclass had them (`by_value` True),
    array equality without hashing (None) or identity (False)."""

    @pytest.mark.parametrize("make, text, by_value, field", RECORDS)
    def test_contract(self, make, text, by_value, field):
        a, b = make(), make()
        assert repr(a) == text
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        assert (a == b) is (by_value is not False)
        assert a != 1
        if by_value is None:
            with pytest.raises(TypeError):
                hash(a)
        elif by_value:
            assert hash(a) == hash(b)
        else:
            assert a == a and hash(a) == object.__hash__(a)

    @pytest.mark.parametrize("cls", STORING, ids=lambda cls: cls.__name__)
    def test_constructor_contract(self, cls):
        # fields bind by position and by name; too many, repeated, unknown
        # and missing arguments raise TypeError, as a dataclass's do
        fields = cls._fields
        values = tuple(range(len(fields)))
        record = cls(*values)
        assert tuple(getattr(record, name) for name in fields) == values
        assert vars(cls(**dict(zip(fields, values)))) == vars(record)
        for args, kwargs in [(values + (0,), {}),
                             (values, {fields[0]: 0}),
                             (values, {"unknown": 0}),
                             ((), dict(zip(fields[1:], values[1:])))]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_config_defaults(self):
        cfg = cli.ExperimentConfig(*range(10))
        assert (cfg.initial, cfg.sweep, cfg.certify_kinds, cfg.observable) == (
            None, None, None, "diameter")
        with pytest.raises(TypeError):
            cli.ExperimentConfig(*range(9))

    def test_persistence_report_json_dict(self):
        report = cl.PersistenceReport("connectivity", cl.Window(2.0, 0.25), 0.5,
                                      1.5, True, 7)
        assert report.to_json_dict() == {
            "kind": "connectivity", "window": {"tau": 2.0, "mu": 0.25},
            "infimum_value": 0.5, "worst_start": 1.5, "passes": True,
            "checked_starts": 7}
        assert cl.PersistenceReport.from_json_dict(report.to_json_dict()) == report

    def test_config_and_bundle_repr(self):
        bundle = cli.OutputBundle([], None, None, None, "summary.json",
                                  {"checks": []})
        assert repr(bundle) == (
            "OutputBundle(trajectory_files=[], persistence_report=None, "
            "contraction_report=None, decay_fit=None, summary_path='summary.json', "
            "summary={'checks': []})")
        assert bundle.exit_code == 0
        cfg = cli.ExperimentConfig(n=1, d=1, kernel=cl.Constant(1.0), signal=None,
                                   window=cl.Window(1.0, 0.5), t_end=1.0, dt=0.1,
                                   sample_every=1, out_dir=".", emit=())
        assert cfg.observable == "diameter"
        assert repr(cfg).startswith("ExperimentConfig(n=1, d=1, kernel=Constant(c=1.0)")
