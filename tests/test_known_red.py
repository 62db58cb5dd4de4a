"""The known-red checker (tools/known_red.py), on synthetic JUnit reports."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import quoteattr

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "known_red.py"
_spec = importlib.util.spec_from_file_location("known_red", _TOOL)
known_red = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(known_red)

# the seven as pytest's JUnit report names them: (classname, name)
SEVEN = [
    ("tests.test_acceptance", "test_c05_level_statistics_crossover"),
    ("tests.test_acceptance", "test_c06_degree_distribution_regimes"),
    ("tests.test_acceptance", "test_c08_first_order_2T_scaling"),
    ("tests.test_acceptance", "test_c12_pr_distribution_contrast"),
    ("tests.test_acceptance", "test_c13_property_suites"),
    ("tests.test_floquet_core.TestBchEffective2T", "test_error_quadratic_in_epsilon"),
    ("tests.test_invariants", "test_property[floquet-core: first-order 2T formula quadratic scaling]"),
]
PASSING = [("tests.test_cli.TestSizeLimit", "test_limit_is_the_largest_allowed_size")]


def _junit(tmp_path, failed=(), errors=(), passed=PASSING) -> Path:
    cases = []
    for kind, rows in (("failure", failed), ("error", errors), (None, passed)):
        for classname, name in rows:
            body = f'<{kind} message="boom"/>' if kind else ""
            cases.append(f"<testcase classname={quoteattr(classname)} name={quoteattr(name)}>{body}</testcase>")
    path = tmp_path / "tier1.xml"
    path.write_text(f'<?xml version="1.0"?><testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    return path


def _run(path: Path) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, str(_TOOL), str(path)], capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout.splitlines()


def test_only_the_seven_pass(tmp_path):
    code, lines = _run(_junit(tmp_path, failed=SEVEN))
    assert code == 0
    assert sorted(lines[:7]) == sorted(f"known red, still failing: {node}" for node in known_red.KNOWN_RED)
    assert lines[7:] == ["7 of 7 known red tests fail; 0 other failures or errors"]


def test_one_more_failure_fails_and_is_named(tmp_path):
    extra = ("tests.test_cli.TestSizeLimit", "test_propagation_beyond_the_limit_exits_1[argv0]")
    code, lines = _run(_junit(tmp_path, failed=[*SEVEN, extra]))
    assert code == 1
    assert "UNEXPECTED failure or error: tests/test_cli.py::TestSizeLimit::test_propagation_beyond_the_limit_exits_1[argv0]" in lines
    assert lines[-1] == "7 of 7 known red tests fail; 1 other failures or errors"


def test_collection_error_without_classname_fails(tmp_path):
    code, lines = _run(_junit(tmp_path, failed=SEVEN[:2], errors=[("", "tests.test_broken")]))
    assert code == 1
    assert "UNEXPECTED failure or error: tests.test_broken" in lines
    assert lines[-1] == "2 of 7 known red tests fail; 1 other failures or errors"


def test_parametrized_invariant_maps_onto_its_readme_node_id(tmp_path):
    failed = known_red.failed_nodes(str(_junit(tmp_path, failed=SEVEN[-1:])))
    assert failed == {
        "tests/test_invariants.py::test_property[floquet-core: first-order 2T formula quadratic scaling]"
    }
    assert failed <= known_red.KNOWN_RED
