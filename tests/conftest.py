"""Shared fixtures and generator helpers for the test suite."""

import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

from modalmin.formula import (
    And,
    Box,
    Dia,
    ExistsMod,
    ForallMod,
    Formula,
    GLOBAL,
    NegLit,
    Or,
    PosLit,
    FALSE,
    TRUE,
)
from modalmin.kripke import Frame, Model, PointedModel

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(97)


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the body once seconds of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rand_frame(rng: random.Random, max_states: int = 4, edge_chance: float = 0.4) -> Frame:
    count = rng.randint(1, max_states)
    edges = [(u, v) for u in range(count) for v in range(count) if rng.random() < edge_chance]
    return Frame(count, edges)


def rand_model(rng: random.Random, var_bound: int = 1, max_states: int = 4) -> Model:
    frame = rand_frame(rng, max_states)
    valuation = {v: rng.getrandbits(frame.state_count) for v in range(1, var_bound + 1)}
    return Model(frame, valuation)


def rand_pointed(rng: random.Random, var_bound: int = 1, max_states: int = 4) -> PointedModel:
    model = rand_model(rng, var_bound, max_states)
    return PointedModel(model, rng.randrange(model.frame.state_count))


def rand_formula(rng: random.Random, var_bound: int, length: int, language: str) -> Formula:
    """A uniform-ish random formula with exactly ``length`` syntax nodes."""
    if length <= 1:
        roll = rng.randrange(4 if var_bound else 2)
        if roll == 0:
            return TRUE
        if roll == 1:
            return FALSE
        var = rng.randint(1, var_bound)
        return PosLit(var) if roll == 2 else NegLit(var)
    unary = [Dia, Box] + ([ExistsMod, ForallMod] if language == GLOBAL else [])
    if length == 2 or rng.random() < 0.45:
        return rng.choice(unary)(rand_formula(rng, var_bound, length - 1, language))
    split = rng.randint(1, length - 2)
    left = rand_formula(rng, var_bound, split, language)
    right = rand_formula(rng, var_bound, length - 1 - split, language)
    return rng.choice([Or, And])(left, right)
