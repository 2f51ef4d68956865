import numpy as np
import pytest

from seqbvs.experiment import ExperimentConfig, aggregate, run_experiment

ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.fixture(scope="session")
def desk_run():
    """One shared desk-profile run (20 reps, the code defaults); used by the acceptance gate."""
    config = ExperimentConfig()
    results = run_experiment(config)
    return config, results, aggregate(results)


def pytest_runtest_makereport(item, call):
    if call.when != "call" or "acceptance" not in item.keywords:
        return
    outcome = "PASS" if call.excinfo is None else "FAIL"
    ACCEPTANCE_RESULTS[item.name] = outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"[{ACCEPTANCE_RESULTS[name]}] {name}")


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: spec acceptance criterion")


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
