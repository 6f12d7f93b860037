from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from revrw import RewriteSystem, parse_system

# HYPOTHESIS_PROFILE=ci (set by the CI workflow) draws more examples in the
# differential tests; other runs keep Hypothesis's default profile.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def examples(count: int) -> settings:
    """Settings of a differential test: `count` examples, or the loaded
    profile's number where that is larger, and no deadline."""
    return settings(max_examples=max(count, settings.default.max_examples), deadline=None)


CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

# Systems whose reversible behavior is exercised wholesale. firstfail is kept
# out: it exists to separate top from constructor reduction (a top step may
# bind a stuck call), so the strategy-refinement inclusions do not apply to it.
CORPUS_FILES = (
    "addfst.trs",
    "double.trs",
    "addmult.trs",
    "snd.trs",
    "needvars.trs",
    "zip.trs",
    "view.trs",
    "simplify.trs",
)


def load(name: str) -> RewriteSystem:
    return parse_system((CORPUS_DIR / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpus() -> dict[str, RewriteSystem]:
    return {name: load(name) for name in CORPUS_FILES}


@pytest.fixture(scope="session")
def addfst() -> RewriteSystem:
    return load("addfst.trs")


@pytest.fixture(scope="session")
def double_sys() -> RewriteSystem:
    return load("double.trs")


@pytest.fixture(scope="session")
def addmult() -> RewriteSystem:
    return load("addmult.trs")


@pytest.fixture(scope="session")
def snd_sys() -> RewriteSystem:
    return load("snd.trs")


@pytest.fixture(scope="session")
def needvars() -> RewriteSystem:
    return load("needvars.trs")


@pytest.fixture(scope="session")
def firstfail() -> RewriteSystem:
    return load("firstfail.trs")


@pytest.fixture(scope="session")
def fgh() -> RewriteSystem:
    return load("fgh.trs")


@pytest.fixture(scope="session")
def zip_sys() -> RewriteSystem:
    return load("zip.trs")


@pytest.fixture(scope="session")
def view_sys() -> RewriteSystem:
    return load("view.trs")


@pytest.fixture(scope="session")
def simplify_sys() -> RewriteSystem:
    return load("simplify.trs")
