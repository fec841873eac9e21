from __future__ import annotations

import functools
import random
from pathlib import Path

import pytest

from gradualpi.castinsert import insert_casts
from gradualpi.parser import Program, parse
from gradualpi.runtime import Configuration, IdTable, configuration_key, enumerate_redexes, normalize, step
from gradualpi.syntax import CPar, CastProcess, free_names
from gradualpi.typecheck import check

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"

# Compositions explored by the progress suite: each entry is the list of
# corpus files whose compiled processes run in parallel.
RUNNABLE_CORPUS = [
    ("client.gpi",),
    ("agency.gpi",),
    ("client.gpi", "agency.gpi"),
    ("client.gpi", "misuse_agency.gpi", "stray_payer.gpi"),
    ("printer_server.gpi", "printer_clients.gpi"),
    ("race.gpi",),
    ("repl_dyn.gpi",),
    ("stuck_pair.gpi",),
    ("empty.gpi",),
]


def load(name: str) -> Program:
    path = CORPUS / name
    return parse(path.read_text(encoding="utf-8"), source=str(path))


def compile_corpus(*names: str) -> Configuration:
    """Check and compile each file under its own env, compose, normalize."""
    compiled: list[CastProcess] = []
    protected: set = set()
    for name in names:
        program = load(name)
        result = check(program.env, program.proc)
        assert result.ok, f"{name} failed to check: {result.diagnostics}"
        proc = insert_casts(program.env, program.proc).proc
        compiled.append(proc)
        protected |= free_names(proc) | {n for n, _ in program.env.bindings}
    return normalize(functools.reduce(CPar, compiled), frozenset(protected))


def state_key(table: IdTable, cfg: Configuration):
    """The explorer's key of `cfg`, its threads interned in `table` (one table per search)."""
    status = cfg.halted.status if cfg.halted else None
    return configuration_key(table, tuple(map(table.intern, cfg.threads)), status, cfg.restrictions)


def corpus_run_threads(seeds: int = 3, steps: int = 60) -> list[CastProcess]:
    """Every thread of the states of seeded runs over the runnable corpus."""
    threads = []
    for names in RUNNABLE_CORPUS:
        cfg0 = compile_corpus(*names)
        for seed in range(seeds):
            pick, cfg = random.Random(seed), cfg0
            for index in range(steps):
                threads.extend(cfg.threads)
                redexes = enumerate_redexes(cfg)
                if not redexes:
                    break
                cfg, _ = step(cfg, redexes[pick.randrange(len(redexes))], index)
    return threads


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture
def corpus_program():
    return load
