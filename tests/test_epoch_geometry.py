"""The checkpoint epochs the executor cuts.

A size the runtime picks itself — the default ``trips // 5`` (in
``[2, 253]``) or whatever the adaptive controller hands back — runs as
whole rounds of the team: the next multiple of the worker count, or the
one below when that would pass the 253-iteration timestamp limit.  A
size below one round runs as it is, and an explicit
``checkpoint_period`` runs exactly.  The bounds are read off the
``executor.epoch`` spans, one per epoch attempt, in order.
"""

import pytest

from repro.adapt.controller import SpeculationController
from repro.bench.pipeline import prepare
from repro.obs.trace import TRACER
from repro.parallel.backend import whole_rounds

SOURCE = """
int scratch[8];
int out[2000];

int main(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 8; j++) { scratch[j] = i * 8 + j; }
        int acc = 0;
        for (int j = 0; j < 8; j++) { acc = acc + scratch[j] % 5; }
        out[i] = acc;
    }
    int total = 0;
    for (int i = 0; i < n; i++) { total = total + out[i]; }
    printf("%d\\n", total);
    return total;
}
"""

TRIPS = (4, 5, 16, 17, 24, 96, 2000)
WORKERS = (1, 2, 3, 4, 24)
LIMIT = 253


@pytest.fixture(scope="module")
def program():
    return prepare(SOURCE, "geometry", args=(24,), use_cache=False)


def expected_output(trips):
    total = sum((i * 8 + j) % 5 for i in range(trips) for j in range(8))
    return [f"{total}\n"]


def run_epochs(program, trips, **kwargs):
    """``(start, end, outcome)`` of every epoch attempt of one run."""
    TRACER.enable()
    try:
        result = program.execute(args=(trips,), **kwargs)
        epochs = [(ev["attrs"]["epoch_start"], ev["attrs"]["epoch_end"],
                   ev["attrs"]["outcome"])
                  for ev in TRACER.events if ev["name"] == "executor.epoch"]
    finally:
        TRACER.disable()
        TRACER.reset()
    assert result.output == expected_output(trips)
    return epochs


def tiling(trips, size):
    return [(s, min(s + size, trips), "committed")
            for s in range(0, trips, size)]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("trips", TRIPS)
def test_default_epochs_are_whole_rounds(program, trips, workers):
    default = max(2, min(LIMIT, trips // 5))
    epochs = run_epochs(program, trips, workers=workers)
    size = epochs[0][1] - epochs[0][0]
    assert epochs == tiling(trips, size)
    assert size <= LIMIT
    if default < workers:
        assert size == default
    else:
        # The next multiple of the team, or the one below at the limit.
        up = default + -default % workers
        assert size == (up if up <= LIMIT else up - workers)


@pytest.mark.parametrize("trips,workers,size", [
    (16, 2, 4), (17, 3, 3), (24, 3, 6), (24, 4, 4), (96, 3, 21),
    (96, 24, 19), (2000, 1, 253), (2000, 2, 252), (2000, 3, 252),
    (2000, 24, 240),
])
def test_default_sizes(program, trips, workers, size):
    assert run_epochs(program, trips, workers=workers) == tiling(trips, size)


@pytest.mark.parametrize("k,workers,size", [
    (2, 3, 2), (3, 4, 3), (3, 2, 4), (19, 24, 19), (19, 4, 20),
    (253, 1, 253), (253, 2, 252), (253, 11, 253), (253, 24, 240),
])
def test_whole_rounds(k, workers, size):
    assert whole_rounds(k, workers) == size


@pytest.mark.parametrize("trips,workers,period", [
    (24, 2, 5), (24, 3, 5), (24, 4, 7), (96, 3, 7), (96, 24, 20),
])
def test_explicit_period_is_exact(program, trips, workers, period):
    epochs = run_epochs(program, trips, workers=workers,
                        checkpoint_period=period)
    assert epochs == tiling(trips, period)


@pytest.mark.parametrize("misspec_period", [0, 3])
@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("trips", [24, 96])
def test_controller_sizes_run_as_whole_rounds(program, monkeypatch, tmp_path,
                                              trips, workers, misspec_period):
    monkeypatch.setenv("REPRO_ADAPT_DIR", str(tmp_path))
    handed = []
    next_size = SpeculationController.next_epoch_size

    def spy(self):
        handed.append(next_size(self))
        return handed[-1]

    monkeypatch.setattr(SpeculationController, "next_epoch_size", spy)
    epochs = run_epochs(program, trips, workers=workers, adapt=True,
                        misspec_period=misspec_period)
    assert len(handed) == len(epochs)
    # Clean epochs grow the controller's size; squashes shrink it.
    assert len(set(handed)) > 1
    for size, (start, end, _) in zip(handed, epochs):
        ran = end - start
        if end == trips:
            assert ran < size + workers
        elif size < workers:
            assert ran == size
        else:
            assert ran % workers == 0 and size <= ran < size + workers


@pytest.mark.parametrize("storm", [False, True])
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("trips", [16, 17, 96])
def test_backends_cut_the_same_epochs(program, monkeypatch, tmp_path, trips,
                                      workers, storm):
    knobs = dict(misspec_period=3, adapt=True) if storm else {}
    runs = []
    for extra in ({}, {"backend": "pool"}, {"processes": 2}):
        # A fresh policy store each run: no warm start from the last.
        monkeypatch.setenv("REPRO_ADAPT_DIR", str(tmp_path / str(len(runs))))
        runs.append(run_epochs(program, trips, workers=workers, **knobs,
                               **extra))
    assert runs[1] == runs[0] and runs[2] == runs[0]
