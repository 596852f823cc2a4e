"""The data-driven predictor's history ring and its harness contract.

The correction/force history lives in one preallocated ring of
region-layout columns; these tests hold it to the list-of-vectors
behaviour it replaced — through wrap-around, ``set_s`` changes and
checkpoint documents written before the ring existed — and pin two
contracts nothing else in tier-1 would notice breaking: one
``mgs_estimate`` call per prediction, looked up as a module global
(``benchmarks/perf/tracing.py`` wraps it by dotted name), and a
steady-state step that allocates a fixed number of buffers.
"""

import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.io.results import _jsonable
from repro.predictor import datadriven
from repro.predictor.datadriven import DataDrivenPredictor, mgs_estimate

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "dd_state_parent.json"


def drive(k, n):
    """Step ``k``'s ``(u, v, f)``: exactly representable values, so the
    history they leave is bit-identical on every platform."""
    i = np.arange(n)
    u = ((7 * i + 13 * k) % 11 - 5) / 8.0
    v = ((3 * i + 5 * k) % 7 - 3) / 4.0
    f = ((5 * i + 11 * k) % 13 - 6) / 16.0
    return u, v, f


def smooth_drive(k, n, rng):
    """A few modes plus noise: a well-conditioned history whose
    estimate is worth comparing to a tolerance."""
    i = np.arange(n)
    u = np.sin(0.2 * k + 0.05 * i) + 0.5 * np.cos(0.31 * k + 0.11 * i)
    return u + 0.1 * rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)


def stacked_estimate(pred, f_next):
    """``d_hat`` from the ``state_dict`` lists by the formulation the
    ring replaced: stack the last ``s + 1`` vectors, zero-pad every
    column into regions, scale the force block, one estimate."""
    doc = pred.state_dict()
    s = pred.s_effective
    nreg, m = pred.n_regions, pred._region_len

    def regions(v):
        buf = np.zeros(nreg * m)
        buf[: pred.n] = v
        return buf.reshape(nreg, m)

    hist, fh = doc["corr"][-(s + 1):], doc["force"][-(s + 1):]
    X = np.stack([regions(d) for d in hist[:-1]], axis=2)
    Y = np.stack([regions(d) for d in hist[1:]], axis=2)
    x = regions(hist[-1])
    scale_d = np.mean([np.linalg.norm(d) for d in hist[:-1]])
    scale_f = np.mean([np.linalg.norm(f) for f in fh[1:]])
    if scale_d > 0.0 and scale_f > 0.0:
        w_f = scale_d / scale_f
        F = np.stack([regions(w_f * f) for f in fh[1:]], axis=2)
        X = np.concatenate([X, F], axis=1)
        x = np.concatenate([x, regions(w_f * f_next)], axis=1)
    return mgs_estimate(X, Y, x).reshape(-1)[: pred.n]


# ------------------------------------------------- ring vs. the lists
def test_ring_matches_stacked_history_through_wraparound_and_set_s():
    """n = 97 does not divide into 3 regions (padding rows), the run
    wraps the 5-column ring five times, and ``s`` shrinks and grows on
    the way: every prediction equals the stacked formulation's."""
    n, s_max = 97, 4
    rng = np.random.default_rng(0)
    pred = DataDrivenPredictor(n, 0.01, s_max=s_max, n_regions=3, s=s_max)
    assert (pred.n_regions, pred._region_len) == (3, 33)
    s_plan = [4, 4, 4, 4, 4, 4, 2, 1, 1, 3, 4, 4, 2, 4, 4, 1, 4, 4, 3, 3, 4, 4, 4, 4, 4, 4]
    used = []
    for k, s in enumerate(s_plan, start=1):
        pred.set_s(s)
        u, v, f = smooth_drive(k, n, rng)
        used.append(pred.s_effective)
        if pred.s_effective >= 1:
            want = pred.ab.predict() + stacked_estimate(pred, f)
            np.testing.assert_allclose(pred.predict(f), want, rtol=1e-9, atol=1e-12)
        else:
            np.testing.assert_array_equal(pred.predict(f), pred.ab.predict())
        pred.observe(u, v, f)
    assert used[:5] == [0, 0, 1, 2, 3] and set(used[5:]) == {1, 2, 3, 4}
    assert pred._count == s_max + 1  # wrapped: capacity, not observations
    assert pred.memory_bytes() == 8 * n * 2 * (s_max + 1) + pred.ab.memory_bytes()


def test_state_dict_lists_are_chronological_copies():
    n = 30
    pred = DataDrivenPredictor(n, 0.5, s_max=2, n_regions=1)
    seen = []
    for k in range(1, 6):
        u, v, f = drive(k, n)
        pred.predict(f)
        seen.append((u - pred._last_ab, f))  # d_k = u_k - u_bar(AB)_k
        pred.observe(u, v, f)
    doc = pred.state_dict()
    for got, (d, f) in zip(zip(doc["corr"], doc["force"]), seen[-3:]):
        np.testing.assert_array_equal(got[0], d)
        np.testing.assert_array_equal(got[1], f)
    # a held snapshot must survive the ring overwriting its columns
    frozen = [c.copy() for c in doc["corr"]]
    for k in range(6, 10):
        pred.predict()
        pred.observe(*drive(k, n))
    for a, b in zip(doc["corr"], frozen):
        np.testing.assert_array_equal(a, b)


# ------------------------------------------- checkpoint compatibility
def fresh_from_fixture():
    doc = json.loads(FIXTURE.read_text())
    pred = DataDrivenPredictor(
        doc["n"], doc["dt"], s_max=doc["s_max"], n_regions=doc["n_regions"]
    )
    return doc, pred


def test_parent_commit_checkpoint_resumes_bit_identically():
    """The fixture is a ``state_dict`` the parent commit (deque
    history) wrote after 7 observed steps and step 8's ``predict``
    (``last_ab`` pending).  This commit reproduces the document
    exactly, and resuming from it continues bit-identically to the
    uninterrupted run."""
    doc, resumed = fresh_from_fixture()
    n = doc["n"]
    straight = DataDrivenPredictor(n, doc["dt"], s_max=doc["s_max"],
                                   n_regions=doc["n_regions"], s=doc["state"]["s"])
    for k in range(1, doc["steps_observed"] + 1):
        u, v, f = drive(k, n)
        straight.predict(f)
        straight.observe(u, v, f)
    straight.predict(drive(doc["steps_observed"] + 1, n)[2])
    assert _jsonable(straight.state_dict()) == doc["state"]  # schema and values

    resumed.load_state_dict(doc["state"])
    assert resumed._last_ab is not None
    for k in range(doc["steps_observed"] + 1, doc["steps_observed"] + 8):
        u, v, f = drive(k, n)
        straight.observe(u, v, f)
        resumed.observe(u, v, f)
        f_next = drive(k + 1, n)[2]
        np.testing.assert_array_equal(resumed.predict(f_next), straight.predict(f_next))
    assert _jsonable(resumed.state_dict()) == _jsonable(straight.state_dict())


def test_load_shorter_history_into_a_wrapped_ring():
    doc, pred = fresh_from_fixture()
    n = doc["n"]
    for k in range(1, 12):  # full ring, wrapped, head somewhere inside
        pred.predict()
        pred.observe(*drive(k, n))
    short = dict(doc["state"], corr=doc["state"]["corr"][-2:],
                 force=doc["state"]["force"][-2:], last_ab=None)
    pred.load_state_dict(short)
    assert pred.s_effective == 1 and pred._last_ab is None
    assert _jsonable(pred.state_dict())["corr"] == short["corr"]
    other = DataDrivenPredictor(n, doc["dt"], s_max=doc["s_max"], n_regions=doc["n_regions"])
    other.load_state_dict(short)
    f = drive(3, n)[2]
    np.testing.assert_array_equal(pred.predict(f), other.predict(f))
    # a document longer than the ring keeps its newest columns, as the
    # bounded deque did
    long_doc = dict(doc["state"], corr=doc["state"]["corr"] * 2,
                    force=doc["state"]["force"] * 2)
    pred.load_state_dict(long_doc)
    assert _jsonable(pred.state_dict())["corr"] == doc["state"]["corr"]


@pytest.mark.parametrize("field", ["corr", "force", "last_ab"])
def test_load_rejects_vectors_of_the_wrong_length(field):
    doc, pred = fresh_from_fixture()
    pred.load_state_dict(doc["state"])
    before = _jsonable(pred.state_dict())
    bad = json.loads(json.dumps(doc["state"]))
    if field == "last_ab":
        bad[field] = bad[field][:-1]
    else:
        bad[field][1] = bad[field][1] + [0.0]
    with pytest.raises(ValueError, match="size mismatch"):
        pred.load_state_dict(bad)
    assert _jsonable(pred.state_dict()) == before  # rejected whole, nothing loaded
    uneven = dict(doc["state"], force=doc["state"]["force"][1:])
    with pytest.raises(ValueError, match="unequal"):
        pred.load_state_dict(uneven)


# ------------------------------------------------- harness contract
def test_one_mgs_estimate_call_per_prediction(monkeypatch):
    """``predict`` reaches the kernel through the module global, once
    per call as soon as there is history and never before: the perf
    harness's ``predictor.mgs_estimate`` layer is that lookup."""
    calls = []

    def counting_stub(X, Y, x, rtol=1e-12):
        calls.append((X.shape, Y.shape, x.shape))
        return np.zeros(Y.shape[:2])

    monkeypatch.setattr(datadriven, "mgs_estimate", counting_stub)
    n = 64
    pred = DataDrivenPredictor(n, 0.5, s_max=3, n_regions=2, s=3)
    want_calls = 0
    for k in range(1, 9):
        if pred.s_effective >= 1:
            want_calls += 1
        u, v, f = drive(k, n)
        guess = pred.predict(f)
        assert len(calls) == want_calls
        np.testing.assert_array_equal(guess, pred._last_ab)  # stub adds zero
        pred.observe(u, v, f)
    assert want_calls == 6  # steps 3..8: two warm-up steps make no call
    assert calls[-1] == ((2, 64, 3), (2, 32, 3), (2, 64))
    # a force-blind history regresses on the correction rows alone
    blind = DataDrivenPredictor(n, 0.5, s_max=3, n_regions=2, s=3)
    for k in range(1, 5):
        blind.predict()
        blind.observe(*drive(k, n)[:2])
    assert calls[-1] == ((2, 32, 2), (2, 32, 2), (2, 32))


# --------------------------------------------------- allocation gate
@pytest.mark.parametrize("s_max", [8, 24])
def test_steady_state_step_allocates_a_fixed_number_of_buffers(s_max):
    """PR-1-style allocation regression: at fixed ``s`` a
    ``predict`` + ``observe`` allocates the gathered inputs, LAPACK's
    copy and its factored output — three ``(nreg, 2m, s+1)`` buffers
    whatever ``s`` is — where the stacking formulation made ``3 s``
    column copies plus six stacked arrays."""
    n, nreg = 6000, 8
    rng = np.random.default_rng(1)
    pred = DataDrivenPredictor(n, 0.01, s_max=s_max, n_regions=nreg, s=s_max)
    for k in range(1, 2 * s_max + 4):  # fill and wrap the ring, warm caches
        u, v, f = smooth_drive(k, n, rng)
        pred.predict(f)
        pred.observe(u, v, f)
    assert pred.s_effective == s_max
    steps = [smooth_drive(k, n, rng) for k in range(100, 106)]
    tracemalloc.start()
    for u, v, f in steps:
        pred.predict(f)
        pred.observe(u, v, f)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    buffer = 8 * nreg * 2 * pred._region_len * (s_max + 1)
    assert peak < 4 * buffer, (peak / buffer, s_max)  # measured: 3.2-3.4
