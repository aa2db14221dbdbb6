"""The package's public surface: each module's __all__, re-exported once."""

import dataclasses
import importlib

import losslin

PUBLIC = {
    "BoundReport", "BoundViolationError", "BreakpointErrors", "DomainError",
    "ExportBundle", "GenericDistribution", "InvalidParameterError", "LossLinError",
    "NormalParams", "Partition", "PiecewiseLinear", "QuadratureError", "STANDARD",
    "SolverError", "adaptive_simpson", "breakpoint_errors", "build_lower",
    "build_report", "build_upper_chord", "cdf", "closs", "closs_generic", "closs_std",
    "evaluate", "from_json", "inv_cdf", "loss", "loss_std", "max_gap",
    "parameter_table", "phi", "plot_data", "solve_minimax", "to_csv_table", "to_json",
    "to_lp_constraints",
}

MODULES = ("bounds", "errors", "export_io", "gaussian", "loss_core", "partition")


def test_package_exports_exactly_the_public_names():
    assert set(losslin.__all__) == PUBLIC


def test_no_name_is_exported_twice():
    assert len(losslin.__all__) == len(set(losslin.__all__))


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from losslin import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC


def test_package_all_is_the_modules_all():
    names = [name for mod in MODULES
             for name in importlib.import_module(f"losslin.{mod}").__all__]
    assert sorted(names) == sorted(losslin.__all__)


def test_each_name_is_its_modules_object():
    for mod_name in MODULES:
        mod = importlib.import_module(f"losslin.{mod_name}")
        for name in mod.__all__:
            assert name in vars(mod), f"{mod_name}.__all__ lists undefined {name}"
            obj = vars(mod)[name]
            # a function or class is defined there, not imported from elsewhere
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name
            assert getattr(losslin, name) is obj, name


def test_each_public_dataclass_field_is_a_constructor_argument():
    # so ==, hash, repr and dataclasses.replace read the arguments and nothing derived
    classes = {name: obj for name, obj in vars(losslin).items()
               if name in losslin.__all__ and isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert {"Partition", "PiecewiseLinear", "BoundReport"} <= set(classes)
    for name, cls in classes.items():
        assert all(f.init for f in dataclasses.fields(cls)), name
    assert [f.name for f in dataclasses.fields(losslin.Partition)] == ["upper_limits"]
    assert [f.name for f in dataclasses.fields(losslin.PiecewiseLinear)] == [
        "std_breakpoints", "std_slopes", "std_intercepts", "kind", "target", "scale"]
    assert [f.name for f in dataclasses.fields(losslin.BoundReport)] == [
        "partition", "scale", "target"]
