"""The test suite's own set-up: a failing test is reported and the session
goes on."""

from pathlib import Path

TESTS = Path(__file__).parent


def test_a_failing_hypothesis_test_does_not_end_the_session(pytester):
    # a fresh interpreter with this suite's conftest and warning filter runs
    # a failing @given test, then a plain one
    root = TESTS.parent
    pytester.makeini(f"""
        [pytest]
        pythonpath = {root / "src"} {TESTS}
        filterwarnings = error
    """)
    pytester.makeconftest((TESTS / "conftest.py").read_text())
    pytester.makepyfile(test_two="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(i):
            assert i < 0

        def test_runs_after_it():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
