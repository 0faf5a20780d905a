"""API-stability gate: the public surface must not silently regress.

Two layers of protection for the ``repro.api`` front door and the
engine constructors beneath it:

* every ``__all__`` export resolves and the pinned signatures below
  match exactly — changing the public surface requires editing this
  file, which is the point;
* when ``mypy`` is installed (CI), the ``mypy.ini`` configuration is
  run over ``src/repro/api`` and ``src/repro/engine`` and must pass.
"""

import importlib.util
import inspect
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.api as api
import repro.engine as engine_pkg
import repro.service as service_pkg
from repro.api import Database, Planner, Q
from repro.service import (
    ProcessPoolServer,
    QueryFuture,
    Session,
    UncertainDBServer,
)
from repro.core import (
    ExpectedNNEngine,
    GroupNNEngine,
    KNNEngine,
    PNNQEngine,
    ReverseNNEngine,
    TopKEngine,
    VerifierEngine,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent


# ----------------------------------------------------------------------
# Exports resolve
# ----------------------------------------------------------------------
@pytest.mark.parametrize("module", [api, engine_pkg, service_pkg, repro])
def test_all_exports_resolve(module):
    assert module.__all__, f"{module.__name__} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), (
            f"{module.__name__}.__all__ lists {name!r} "
            "but the attribute is missing"
        )


def test_api_package_exports_the_front_door():
    for name in ("Database", "Planner", "Plan", "Q", "QueryResult",
                 "QuerySpec", "PlanningError", "IndexHandle"):
        assert name in api.__all__


# ----------------------------------------------------------------------
# Pinned signatures (edit deliberately, never accidentally)
# ----------------------------------------------------------------------
def sig(obj) -> str:
    return str(inspect.signature(obj))


# Annotations render as strings (PEP 563 is active in repro.api).
PINNED = {
    Database.nn: "(self, query: 'Any', *, "
    "retriever: 'str | None' = None, "
    "timeout: 'float | None' = None) -> 'QueryResult'",
    Database.knn: "(self, query: 'Any', k: 'int' = 1, *, "
    "retriever: 'str | None' = None, "
    "timeout: 'float | None' = None) -> 'QueryResult'",
    Database.topk: "(self, query: 'Any', k: 'int' = 1, *, "
    "retriever: 'str | None' = None, "
    "timeout: 'float | None' = None) -> 'QueryResult'",
    Database.threshold: "(self, query: 'Any', p: 'float' = 0.1, *, "
    "retriever: 'str | None' = None, "
    "timeout: 'float | None' = None) -> 'QueryResult'",
    Database.group_nn: "(self, queries: 'Any', "
    "aggregate: 'str' = 'sum', *, "
    "retriever: 'str | None' = None, "
    "timeout: 'float | None' = None) -> 'QueryResult'",
    Database.reverse_nn: "(self, query_object: 'UncertainObject', *, "
    "timeout: 'float | None' = None) -> 'QueryResult'",
    Database.expected_nn: "(self, query: 'Any', "
    "top: 'int | None' = None, *, "
    "retriever: 'str | None' = None, "
    "timeout: 'float | None' = None) -> 'QueryResult'",
    Database.batch: "(self, specs: 'Sequence[QuerySpec]', *, "
    "retriever: 'str | None' = None) -> 'list[QueryResult]'",
    Database.insert: "(self, obj: 'UncertainObject') -> 'None'",
    Database.delete: "(self, oid: 'int') -> 'UncertainObject'",
    Planner.observe: "(self, retriever: 'str', kind: 'str', "
    "step1_seconds: 'float') -> 'None'",
    Planner.observe_step2: "(self, kind: 'str', "
    "step2_seconds: 'float', gather_seconds: 'float' = 0.0, "
    "eval_seconds: 'float' = 0.0) -> 'None'",
    # The submit-and-serve surface (PR 5).
    Database.serve: "(self, **options: 'Any') -> 'UncertainDBServer'",
    Database.close: "(self) -> 'None'",
    UncertainDBServer.session: "(self) -> 'Session'",
    UncertainDBServer.submit: "(self, kind: 'str', query: 'Any', "
    "params: 'tuple[tuple[str, Any], ...]' = (), "
    "retriever: 'str | None' = None, "
    "deadline: 'float | None' = None) -> 'QueryFuture'",
    QueryFuture.result: "(self, timeout: 'float | None' = None) -> 'Any'",
    QueryFuture.done: "(self) -> 'bool'",
    Session.nn: "(self, query: 'Any', *, "
    "retriever: 'str | None' = None, "
    "timeout: 'float | None' = None) -> 'QueryFuture'",
    Session.knn: "(self, query: 'Any', k: 'int' = 1, *, "
    "retriever: 'str | None' = None, "
    "timeout: 'float | None' = None) -> 'QueryFuture'",
    Session.insert: "(self, obj: 'Any') -> 'QueryFuture'",
    Session.delete: "(self, oid: 'int') -> 'QueryFuture'",
    # Constructors: every option here is set by a caller or a test.
    Database.__init__: "(self, dataset: 'UncertainDataset', *, "
    "indexes: 'Sequence[str]' = ('pv', 'rtree', 'uv'), "
    "result_cache_size: 'int' = 128, "
    "planner: 'Planner | None' = None) -> 'None'",
    Planner.__init__: "(self, *, ema_alpha: 'float' = 0.4, "
    "replan_every: 'int' = 64) -> 'None'",
    ProcessPoolServer.__init__: "(self, db: 'Any', *, workers: 'int' = 2, "
    "max_group: 'int' = 256, "
    "stall_timeout: 'float' = 30.0, fault_plan: 'Any' = None) -> 'None'",
}


@pytest.mark.parametrize(
    "obj", list(PINNED), ids=lambda o: o.__qualname__
)
def test_pinned_signatures(obj):
    assert sig(obj) == PINNED[obj], (
        f"{obj.__qualname__} signature changed: {sig(obj)!r} — "
        "update tests/test_api_stability.py deliberately if intended"
    )


ENGINE_HEAD = ("dataset", "retriever")
ENGINE_KEYWORD_ONLY = {"secondary", "result_cache_size"}


@pytest.mark.parametrize(
    "engine_cls",
    [
        PNNQEngine,
        KNNEngine,
        TopKEngine,
        VerifierEngine,
        GroupNNEngine,
        ReverseNNEngine,
        ExpectedNNEngine,
    ],
)
def test_engine_constructors_stay_uniform(engine_cls):
    params = list(
        inspect.signature(engine_cls.__init__).parameters.values()
    )[1:]
    assert tuple(p.name for p in params[:2]) == ENGINE_HEAD
    assert params[1].default is None
    keyword_only = {
        p.name
        for p in params
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    }
    assert ENGINE_KEYWORD_ONLY <= keyword_only


def test_session_mirrors_every_query_verb():
    from repro.api.database import _KINDS

    for kind in _KINDS:
        verb = getattr(Session, kind, None)
        assert callable(verb), f"Session.{kind} missing"


def test_q_constructors_cover_every_kind():
    from repro.api.database import _KINDS

    for kind in _KINDS:
        assert hasattr(Q, kind), f"Q.{kind} constructor missing"
        spec = getattr(Q, kind)
        assert callable(spec)


# ----------------------------------------------------------------------
# mypy gate (runs when mypy is installed — the CI/tooling satellite)
# ----------------------------------------------------------------------
def test_mypy_passes_over_the_public_surface():
    if importlib.util.find_spec("mypy") is None:
        pytest.skip("mypy is not installed in this environment")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(REPO_ROOT / "mypy.ini"),
            str(REPO_ROOT / "src" / "repro" / "api"),
            str(REPO_ROOT / "src" / "repro" / "engine"),
            str(REPO_ROOT / "src" / "repro" / "storage"),
            str(REPO_ROOT / "src" / "repro" / "service"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, (
        "mypy found issues in the public surface:\n"
        f"{proc.stdout}\n{proc.stderr}"
    )
