import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Test modules that run in a pytest child process with a Ray session of its
# own. A Ray abort there (a RAY_CHECK failing in the driver) then fails only
# that module's tests, and this run goes on and prints its summary.
OWN_SESSION = ("test_entry.py",)
# Set in the child: the file its test reports go to, one JSON line each.
_REPORTS_ENV = "KG_TESTS_CHILD_REPORTS"
_CHILD_TIMEOUT_S = 1200
_CHILD_RUNS = pytest.StashKey[dict]()


class _ReportRecorder:
    """The child's side: every test's start and reports, appended to
    ``path`` as they happen, so that a run the child does not finish still
    says which test it was in."""

    def __init__(self, config, path: str):
        self.config, self.path = config, path
        self.parent = os.getppid()

    def _record(self, entry: dict) -> None:
        with open(self.path, "a") as f:
            f.write(json.dumps(entry) + "\n")

    def pytest_runtest_logstart(self, nodeid, location):
        # the child has a session of its own, so a signal that ends the
        # parent's process group does not reach it
        if os.getppid() != self.parent:
            pytest.exit("the parent pytest run has ended", returncode=2)
        self._record({"start": nodeid})

    def pytest_runtest_logreport(self, report):
        self._record({"report": self.config.hook.pytest_report_to_serializable(
            config=self.config, report=report)})


def pytest_configure(config):
    if os.environ.get(_REPORTS_ENV):
        config.pluginmanager.register(_ReportRecorder(config, os.environ[_REPORTS_ENV]))
    config.stash[_CHILD_RUNS] = {}


def _run_child(session, path) -> tuple[dict, dict]:
    """Run the selected tests of the module at ``path`` in a child pytest →
    (nodeid → its test reports, nodeid → why the child sent none or not
    all of them, with the key None for the tests it never started)."""
    config = session.config
    nodeids = [i.nodeid for i in session.items if i.path == path]
    with tempfile.TemporaryDirectory(prefix="kg-tests-child-") as tmp, \
            open(os.path.join(tmp, "output"), "w+b") as out:
        log = os.path.join(tmp, "reports.jsonl")
        open(log, "w").close()
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodeids],
            cwd=str(config.rootpath), env={**os.environ, _REPORTS_ENV: log},
            stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=_CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # what the child left running: when it dies, Ray's dashboard and
            # runtime-env agents outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        with open(log) as f:
            entries = [json.loads(line) for line in f]
        out.seek(0)
        output = "\n".join(line for line in out.read().decode(errors="replace").splitlines()
                           if not line.startswith("Extension modules:"))[-3000:]
    reports, running = {}, None
    for entry in entries:
        if "start" in entry:
            running = entry["start"]
            continue
        rep = config.hook.pytest_report_from_serializable(config=config,
                                                          data=entry["report"])
        reports.setdefault(rep.nodeid, []).append(rep)
        if rep.when == "teardown":
            running = None
    if running is None and code in (0, 1):
        return reports, {}
    why = f"the child pytest process of {path.name} " + (
        f"did not finish in {_CHILD_TIMEOUT_S} s" if code is None
        else f"exited with code {code}")
    if running is None:
        return reports, {None: f"not run: {why}; its output ends:\n{output}"}
    return reports, {running: f"{why} while running this test; its output ends:\n"
                              f"{output}",
                     None: f"not run: {why} while running {running}"}


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_protocol(item, nextitem):
    """In the parent run, replay the child's reports of an ``OWN_SESSION``
    test (the child runs once per module, at its first test); a test the
    child did not finish fails with the reason the child ended."""
    if os.environ.get(_REPORTS_ENV) or item.path.name not in OWN_SESSION:
        return None
    runs = item.config.stash[_CHILD_RUNS]
    if item.path not in runs:
        runs[item.path] = _run_child(item.session, item.path)
    reports, failures = runs[item.path]
    got = reports.get(item.nodeid, [])
    item.ihook.pytest_runtest_logstart(nodeid=item.nodeid, location=item.location)
    for rep in got:
        item.ihook.pytest_runtest_logreport(report=rep)
    if not got or got[-1].when != "teardown":
        why = failures.get(item.nodeid) or failures.get(None) or (
            "the child pytest process sent no report of this test")
        now = time.time()
        item.ihook.pytest_runtest_logreport(report=pytest.TestReport(
            item.nodeid, item.location, {}, "failed", why, "call",
            start=now, stop=now))
    item.ihook.pytest_runtest_logfinish(nodeid=item.nodeid, location=item.location)
    return True


@pytest.fixture(scope="session")
def ray_session():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_fixture():
    """Cached deterministic pages fixture (~200 rows)."""
    from ner_backend_ray.fixtures.pages import generate_pages
    return generate_pages(0.0002)
