import faulthandler
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: wall-clock bound on one test: a hung test fails instead of stalling the run
TEST_TIMEOUT_S = 600


@pytest.fixture(autouse=True)
def _bounded_test():
    """Arm SIGALRM for every test. On expiry, write every thread's stack
    to stderr and raise ``TimeoutError`` in the test's main thread."""

    def _expired(signum, frame):
        faulthandler.dump_traceback(file=sys.__stderr__, all_threads=True)
        raise TimeoutError(f"test ran longer than {TEST_TIMEOUT_S} s")

    prev = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, prev)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture()
def sf_dir():
    return "/root/testdata/sf0.001"
