"""No module of the package imports another module's private name: what
one module uses of another is that module's public API. The public API's
optional parameters are pinned by name."""

import ast
import inspect
from pathlib import Path

import aspeq

SOURCES = sorted(Path(aspeq.__file__).parent.glob("*.py"))


def test_no_private_cross_module_imports():
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert SOURCES and private == []


# every optional parameter of the public API, by name: a new option
# changes this list on purpose
OPTIONS = [
    "ExponentialNormalized.gamma", "LogWealth.wealth", "PairBatch.spec",
    "PiecewiseLinear.points", "QuadratureSpec.absolute_tolerance",
    "QuadratureSpec.max_subdivision_depth", "QuadratureSpec.relative_tolerance",
    "RootBracket.value_tolerance", "ScaledBeta.alpha", "ScaledBeta.beta",
    "Scenario.params", "Scenario.published", "Step.threshold", "Triangular.mode",
    "TruncatedGaussian.center", "TruncatedGaussian.scale",
    "ae_cumulant_series.spec", "ae_taylor2.spec", "aspiration_equivalent.spec",
    "ce_taylor2.spec", "certain_equivalent.spec", "choose_by_aspiration.spec",
    "choose_by_eu.spec",
    "cumulants.knots", "cumulants.spec", "desiderata_report.fractile",
    "desiderata_report.spec", "dominance_implications.grid_points",
    "dominance_implications.spec", "dominance_report.grid_points",
    "dominance_report.spec", "dual_select.spec", "effective_gamma.spec",
    "effective_root.spec", "evaluate_matrix.spec", "evaluate_pair.spec",
    "expected_disutility.spec", "expected_utility.spec",
    "exponential_chain.grid_points", "exponential_chain.spec",
    "first_moment_by_equal_areas.spec", "first_order_dominates.grid_points",
    "integrate.knots", "integrate.spec", "saddle_allocate.spec",
    "second_order_dominates.grid_points", "taylor2_pairs.spec", "update_target.spec",
]


def test_library_option_surface():
    found = [
        f"{name}.{p.name}"
        for name in aspeq.__all__
        # an exception or warning class takes no options
        if callable(obj := getattr(aspeq, name))
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
        for p in inspect.signature(obj).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]
    assert sorted(found) == OPTIONS and len(OPTIONS) == 48


def test_cli_reads_pairs_through_the_library():
    # approx reads taylor2_pairs: the CLI batches no pairs and caches no
    # moments of its own
    source = (Path(aspeq.__file__).parent / "cli.py").read_text(encoding="utf-8")
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "PairBatch" not in imported and "density_moments" not in source
