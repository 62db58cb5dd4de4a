"""Tell the Tier-1 tests that are red on purpose apart from any other failure.

    python3 tools/known_red.py <tier1 JUnit XML>

Reads the JUnit report of a Tier-1 run (pytest --junitxml). Prints which
of the seven known red tests (README, "Running the tests") still fail,
then every other failure or error, collection errors included, and
exits 1 if there is any other; otherwise it exits 0.
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_RED = {
    "tests/test_acceptance.py::test_c05_level_statistics_crossover",
    "tests/test_acceptance.py::test_c06_degree_distribution_regimes",
    "tests/test_acceptance.py::test_c08_first_order_2T_scaling",
    "tests/test_acceptance.py::test_c12_pr_distribution_contrast",
    "tests/test_acceptance.py::test_c13_property_suites",
    "tests/test_floquet_core.py::TestBchEffective2T::test_error_quadratic_in_epsilon",
    "tests/test_invariants.py::test_property[floquet-core: first-order 2T formula quadratic scaling]",
}


def failed_nodes(junit_xml: str) -> set[str]:
    """Node id of every test case with a failure or an error in the report."""
    failed = set()
    for case in ET.parse(junit_xml).iter("testcase"):
        if case.find("failure") is None and case.find("error") is None:
            continue
        if not case.get("classname"):  # a collection error names its module only
            failed.add(case.get("name", ""))
            continue
        # classname is the dotted module path, then any test class
        parts = case.get("classname").split(".")
        module = "/".join(p for p in parts if not p[:1].isupper()) + ".py"
        classes = [p for p in parts if p[:1].isupper()]
        failed.add("::".join([module, *classes, case.get("name", "")]))
    return failed


def main(argv: list[str]) -> int:
    failed = failed_nodes(argv[0])
    for node in sorted(failed & KNOWN_RED):
        print("known red, still failing:", node)
    unexpected = sorted(failed - KNOWN_RED)
    for node in unexpected:
        print("UNEXPECTED failure or error:", node)
    print(f"{len(failed & KNOWN_RED)} of {len(KNOWN_RED)} known red tests fail; {len(unexpected)} other failures or errors")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
