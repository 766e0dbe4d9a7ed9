"""The batched restart search against serial reference loops.

`lm_solve` runs all restarts of a witness search as one batch, and
`point_set_witness` aligns every solution to the reference in one call. The
references below are the one-restart-at-a-time loops they replace; every
restart must come out bit for bit the same.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrig import rigidity
from polyrig._nlsq import CONVERGED, EXHAUSTED, STALLED, lm_solve
from polyrig.errors import DegenerateMeasurement, NoConvergedRestarts
from polyrig.generators import platonic
from polyrig.geometry import build_pool, mesh_kernel
from polyrig.pointsets import (
    Angle,
    Coplanar,
    Distance,
    MeasurementList,
    align_distance,
    diameter,
)
from polyrig.polygon import octagon_distance_oracle, staircase_measurements, staircase_polygon
from polyrig.rigidity import point_set_witness

SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
CUBE = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                 [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float)
CUBE_TEN = [Distance(0, 1), Distance(0, 3), Distance(0, 4), Distance(1, 3), Distance(1, 4),
            Distance(3, 4), Distance(0, 6), Distance(5, 6), Distance(7, 6), Distance(2, 6)]
CUBE_COPLANAR = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
                 (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)]
STAIRCASE_ANGLES = np.random.default_rng(106).uniform(1.15, 1.45, size=4)

# name -> (dim, points, measurements, keyword arguments of point_set_witness)
CASES = {
    "square-four": (2, SQUARE, [Distance(0, 1), Distance(0, 2), Distance(0, 3),
                                Angle(1, 2, 3)], {}),
    "square-five": (2, SQUARE, [Angle(1, 0, 3), Angle(2, 3, 0), Distance(0, 1),
                                Distance(2, 3), Angle(0, 1, 2)], {}),
    "staircase6": (2, staircase_polygon(6, 1.0, STAIRCASE_ANGLES).points,
                   staircase_measurements(6), dict(noise=0.05, locality=0.1)),
    "cube-nine": (3, CUBE, CUBE_TEN[:-1],
                  dict(coplanar=CUBE_COPLANAR, allow_reflection=True)),
    "cube-ten": (3, CUBE, CUBE_TEN, dict(coplanar=CUBE_COPLANAR, allow_reflection=True)),
}
RESTARTS = 30
OUTCOMES = ("converged", "escaped", STALLED, EXHAUSTED)


def serial_lm(residual, jacobian, x0, max_iter=250, target=1e-12, trials=None, rounds=None):
    """One start at a time: the loop the batched lm_solve replaced, with
    the reason it stopped. It takes its trials in the rounds lm_solve
    takes, 1, 2, 4, 8, 16, then the rest of the 40, each ended by its first
    singular or winning trial. `trials`, a list, receives per iteration the
    outcome of each trial: "singular", "worse" or "won"; `rounds`, a list,
    per iteration the rows of each round."""
    x = np.array(x0, dtype=float)
    r = residual(x)
    cost = float(r @ r)
    lam = 1e-3
    reason = EXHAUSTED
    log = [] if trials is None else trials
    sizes = [] if rounds is None else rounds
    for _ in range(max_iter):
        if np.abs(r).max() <= target:
            break
        J = jacobian(x)
        A = J.T @ J
        g = J.T @ r
        n = A.shape[0]
        improved = False
        log.append([])
        sizes.append([])
        tried, size = 0, 1
        while tried < 40 and not improved:
            k = min(size, 40 - tried)
            sizes[-1].append(k)
            for _ in range(k):
                tried += 1
                try:
                    dx = np.linalg.solve(A + lam * np.eye(n), -g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    log[-1].append("singular")
                    break
                xn = x + dx
                rn = residual(xn)
                cn = float(rn @ rn)
                if cn < cost:
                    x, r, cost = xn, rn, cn
                    lam = max(lam * 0.25, 1e-14)
                    improved = True
                    log[-1].append("won")
                    break
                lam *= 4.0
                log[-1].append("worse")
            size *= 2
        if not improved:
            reason = STALLED
            break
    if np.abs(r).max() <= target:
        reason = CONVERGED
    return x, r, reason


def plain(residual):
    """A residual as lm_solve's evaluate: the residuals, with the points
    themselves as the data its Jacobian takes."""
    return lambda x: (residual(x), x)


def case_kernel(name):
    """The measurement list of a case with its side rows, and its targets."""
    _, ref, ms, kw = CASES[name]
    side = [Coplanar(*q) for q in kw.get("coplanar", ())]
    kernel = MeasurementList(list(ms) + side)
    targets = kernel.values(ref)
    targets[len(ms):] = 0.0
    return kernel, targets


def system(name, restarts=RESTARTS, seed=0):
    """The residual, the Jacobian (on one point or a batch) and the starts
    point_set_witness builds for a case."""
    dim, ref, ms, kw = CASES[name]
    kernel, targets = case_kernel(name)
    n = len(ref)
    noise = kw.get("noise", 0.5)
    diam = diameter(ref)

    def resid(x):
        return kernel.values(x.reshape(*x.shape[:-1], n, dim)) - targets

    def jac(x):
        return kernel.jacobian(x.reshape(*x.shape[:-1], n, dim))

    starts = np.array([
        (ref + noise * diam * np.random.default_rng([seed, i]).standard_normal(ref.shape)).ravel()
        for i in range(restarts)
    ])
    return resid, jac, starts


def serial_witness(name, restarts=RESTARTS, seed=0):
    """The search point_set_witness made before its restarts were batched:
    (the count of each restart outcome, clusters as (representative, count,
    distance), witness). Each restart is solved once, to 1e-12, and kept
    at a residual of 1e-10; clusters are taken at sqrt(1e-10) of the
    scale."""
    dim, ref, _, kw = CASES[name]
    resid, jac, starts = system(name, restarts, seed)
    reflect = kw.get("allow_reflection", dim == 2)
    locality = kw.get("locality")
    scale = max(1.0, diameter(ref))
    reps, counts, dists = [ref], [0], [0.0]
    outcomes = dict.fromkeys(OUTCOMES, 0)
    for x0 in starts:
        x, r, why = serial_lm(resid, jac, x0, target=1e-12)
        if np.abs(r).max() > 1e-10:
            outcomes[why] += 1
            continue
        sol = x.reshape(-1, dim)
        if locality is not None and align_distance(ref, sol, reflect) > locality * scale:
            outcomes["escaped"] += 1
            continue
        outcomes["converged"] += 1
        for k, rep in enumerate(reps):
            if align_distance(rep, sol, reflect) <= np.sqrt(1e-10) * scale:
                counts[k] += 1
                break
        else:
            reps.append(sol)
            counts.append(1)
            dists.append(align_distance(ref, sol, reflect))
    witness = next((rep for rep, d in zip(reps, dists) if d > 1e-4 * scale), None)
    return outcomes, list(zip(reps, counts, dists)), witness


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_lm_matches_serial_loop(name):
    resid, jac, starts = system(name)
    x, r, reason = lm_solve(plain(resid), jac, starts, target=1e-12)
    for i, x0 in enumerate(starts):
        xs, rs, why = serial_lm(resid, jac, x0, target=1e-12)
        assert np.array_equal(x[i], xs), i
        assert np.array_equal(r[i], rs), i
        assert reason[i] == why, i


@pytest.mark.parametrize("restarts", [RESTARTS, 0], ids=["batch", "empty"])
@pytest.mark.parametrize("name", ["square-four", "cube-ten"])
def test_a_point_batch_solves_as_its_flattened_batch(name, restarts):
    # lm_solve hands residual and jacobian the batch in x0's shape and
    # returns x in it: a (B, n, dim) run is the (B, n * dim) run, bit for bit
    ref = CASES[name][1]
    resid, jac, starts = system(name, restarts)
    flat = starts.reshape(restarts, ref.size)
    x_flat, r_flat, why_flat = lm_solve(plain(resid), jac, flat, target=1e-12)
    seen = set()

    def on_points(f):
        def g(P):
            seen.add(P.shape[1:])
            return f(P.reshape(len(P), ref.size))
        return g

    points = flat.reshape(restarts, *ref.shape)
    x, r, why = lm_solve(plain(on_points(resid)), on_points(jac), points, target=1e-12)
    assert seen == {ref.shape} and x.shape == points.shape
    assert np.array_equal(x.reshape(restarts, ref.size), x_flat)
    assert np.array_equal(r, r_flat) and np.array_equal(why, why_flat)


def test_singular_member_does_not_stop_the_others(monkeypatch):
    # a member whose x[2] > 0 has J = 1e10 [1, 1, 0]: 1e20 + lam == 1e20 at
    # the first damping values, so its solve raises LinAlgError until lam
    # grows; the other members' damping and iterates must not notice
    def scale(x):
        return np.where(x[..., 2] > 0, 1e10, 1.0)

    def resid(x):
        return (scale(x) * (x[..., 0] + x[..., 1] - 1.0))[..., None]

    def jac(x):
        s = scale(x)
        return np.stack([s, s, 0.0 * s], axis=-1)[..., None, :]

    singular = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(len(a))
            raise

    starts = np.array([[0.3, 0.2, -1.0], [0.3, 0.2, 1.0], [2.0, -3.0, -1.0]])
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    x, r, reason = lm_solve(plain(resid), jac, starts, max_iter=30, target=1e-9)
    monkeypatch.undo()
    assert singular
    for i, x0 in enumerate(starts):
        xs, rs, why = serial_lm(resid, jac, x0, max_iter=30, target=1e-9)
        assert np.array_equal(x[i], xs) and np.array_equal(r[i], rs), i
        assert reason[i] == why, i
    assert reason[0] == reason[2] == CONVERGED


def polish_starts(name):
    """The system of a case and its restarts that converged within
    point_set_witness's RESIDUAL_TOL, the starts of a polish pass."""
    resid, jac, starts = system(name)
    x, r, _ = lm_solve(plain(resid), jac, starts, target=1e-12)
    return resid, jac, x[np.abs(r).max(axis=1) <= 1e-10]


@pytest.mark.parametrize("name", sorted(CASES))
def test_polish_pass_matches_serial_loop(name):
    # a second pass over converged restarts to a target below their rounding
    # floor (a polish), where most members end by a stall after a full sweep
    # of damping values
    resid, jac, x0 = polish_starts(name)
    x, r, reason = lm_solve(plain(resid), jac, x0, max_iter=80, target=1e-15)
    for i in range(len(x0)):
        xs, rs, why = serial_lm(resid, jac, x0[i], max_iter=80, target=1e-15)
        assert np.array_equal(x[i], xs), i
        assert np.array_equal(r[i], rs), i
        assert reason[i] == why, i


def counted_rounds(resid, jac, x0, **kw):
    """lm_solve from one start: its result and, per iteration, the rows of
    each of its residual calls."""
    iterations = []

    def counting_jac(x):
        iterations.append([])
        return jac(x)

    def counting_resid(x):
        if iterations:
            iterations[-1].append(len(x))
        return resid(x)

    return lm_solve(plain(counting_resid), counting_jac, x0[None], **kw), iterations


def root_two(x):
    """r = x0^2 - 2, which stalls at its rounding floor near sqrt(2) and
    leaves x1 where it started."""
    return x[..., :1] ** 2 - 2.0


def root_two_jacobian(x):
    # x1's column is zero, so (J^T J + lam I)[1, 1] is the damping value
    J = np.zeros(x.shape[:-1] + (1, 2))
    J[..., 0, 0] = 2.0 * x[..., 0]
    return J


def test_a_stalled_iteration_takes_all_40_trials():
    # at its rounding floor near sqrt(2), the member's last iteration tries
    # all 40 damping values in rounds of 1, 2, 4, 8, 16 and 9, none lowers
    # the cost, and it stalls where the iteration started; the largest
    # damping values give back that iterate to the bit
    start = np.array([1.5, 0.5])
    ((x,), (r,), (why,)), iterations = counted_rounds(
        root_two, root_two_jacobian, start, target=1e-20)
    points = []

    def recording(point):
        points.append(point)
        return root_two(point)

    rounds, trials = [], []
    xs, rs, whys = serial_lm(recording, root_two_jacobian, start, target=1e-20,
                             rounds=rounds, trials=trials)
    assert why == whys == STALLED
    assert np.array_equal(x, xs) and np.array_equal(r, rs)
    assert iterations == rounds and iterations[-1] == [1, 2, 4, 8, 16, 9]
    assert trials[-1] == ["worse"] * 40
    assert all(p.tobytes() == x.tobytes() for p in points[-9:])


def test_singular_rung_inside_a_ladder(monkeypatch):
    # r = atan(x0): from |x0| = 3 the steps of small damping overshoot, and
    # the ladder of the second round holds 4e-3 and 1.6e-2. The zero column of
    # x1 puts the damping value itself at (1, 1) of J^T J + lam I, so the
    # solve can be made singular at 1.6e-2 alone: rung 1 of that ladder
    poison = np.ldexp(1e-3, 4)

    def resid(x):
        return np.arctan(x[..., :1])

    def jac(x):
        J = np.zeros(x.shape[:-1] + (1, 2))
        J[..., 0, 0] = 1.0 / (1.0 + x[..., 0] ** 2)
        return J

    ladders = []  # the damping values of each solve that met the poison
    solve = np.linalg.solve

    def poisoned_solve(a, b):
        lams = a.reshape(-1, 2, 2)[:, 1, 1]
        if (lams == poison).any():
            ladders.append(lams)
            raise np.linalg.LinAlgError("poisoned damping value")
        return solve(a, b)

    starts = np.array([[3.0, 0.0], [-3.0, 1.0], [0.5, 0.0]])
    monkeypatch.setattr(np.linalg, "solve", poisoned_solve)
    x, r, reason = lm_solve(plain(resid), jac, starts, max_iter=30, target=1e-9)
    serial = [serial_lm(resid, jac, x0, max_iter=30, target=1e-9) for x0 in starts]
    monkeypatch.undo()
    # a stacked solve met the poison right after the rung below it
    assert any(
        i > 0 and lams[i - 1] == poison / 4
        for lams in ladders for i in np.flatnonzero(lams == poison)
    ), ladders
    for i, (xs, rs, why) in enumerate(serial):
        assert np.array_equal(x[i], xs) and np.array_equal(r[i], rs), i
        assert reason[i] == why == CONVERGED, i


def test_singular_rung_past_the_fourth_round(monkeypatch):
    # the stall sweep of root_two from x1 = 0.5, made singular at its
    # fourth round's second rung: lam grows by 10, the rungs past it are
    # discarded, and the rounds after it take 16 and the 15 trials left, as
    # the serial loop does
    start = np.array([1.5, 0.5])
    tried = []
    solve = np.linalg.solve

    def recording(a, b):
        tried.append(a[..., 1, 1].ravel())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    serial_lm(root_two, root_two_jacobian, start, target=1e-20)
    poison = np.concatenate(tried)[-40:][8]
    hits = []

    def poisoned(a, b):
        if (a[..., 1, 1] == poison).any():
            hits.append(a.shape)
            raise np.linalg.LinAlgError("poisoned damping value")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", poisoned)
    ((x,), (r,), (why,)), iterations = counted_rounds(
        root_two, root_two_jacobian, start, target=1e-20)
    assert hits
    rounds, trials = [], []
    xs, rs, whys = serial_lm(root_two, root_two_jacobian, start, target=1e-20,
                             rounds=rounds, trials=trials)
    monkeypatch.undo()
    assert trials[-1][:9] == ["worse"] * 8 + ["singular"]
    assert np.array_equal(x, xs) and np.array_equal(r, rs)
    assert why == whys == STALLED
    assert iterations == rounds and iterations[-1] == [1, 2, 4, 8, 16, 15]


def test_each_member_runs_on_its_own_schedule():
    # a step gives every member still running its next round of damping
    # values, so the evaluate calls number those of the member that takes
    # the most rounds alone, where a lockstep batch made every iteration
    # wait for the slowest member's ladder before any took its Jacobian.
    # The serial loop predicts each member's rounds and their rows: the
    # calls and the rows they evaluate
    fewer = []
    for name in ["staircase6", "cube-ten"]:
        resid, jac, starts = system(name)
        calls = []

        def counting(x):
            calls.append(len(x))
            return resid(x), x

        x, r, reason = lm_solve(counting, jac, starts, target=1e-12)
        rounds, rows = [], 0  # per member, the rounds of each iteration; all rows
        for i, x0 in enumerate(starts):
            member = []
            xs, rs, why = serial_lm(resid, jac, x0, target=1e-12, rounds=member)
            assert np.array_equal(x[i], xs) and np.array_equal(r[i], rs), (name, i)
            assert reason[i] == why, (name, i)
            rounds.append([len(it) for it in member])
            rows += sum(map(sum, member))
        alone = 1 + max(sum(m) for m in rounds)
        lockstep = 1 + sum(
            max(m[t] for m in rounds if len(m) > t)
            for t in range(max(len(m) for m in rounds))
        )
        assert len(calls) == alone, name
        assert sum(calls) == len(starts) + rows, name
        fewer.append(len(calls) < lockstep)
    assert any(fewer)


ORDER_CASES = ["square-four", "staircase6", "cube-nine"]
ORDER_BATCH = 12


def kernel_system(name, restarts=ORDER_BATCH):
    """A case's evaluate and Jacobian as point_set_witness passes them to
    lm_solve (values and Gradients from one kernel pass, assemble), and its
    starts as points."""
    ref = CASES[name][1]
    kernel, targets = case_kernel(name)

    def evaluate(P):
        values, grads = kernel.evaluate(P)
        return values - targets, grads

    return evaluate, kernel.assemble, system(name, restarts)[2].reshape(restarts, *ref.shape)


@functools.lru_cache(maxsize=None)
def _whole_batch(name):
    evaluate, assemble, starts = kernel_system(name)
    return lm_solve(evaluate, assemble, starts, target=1e-12)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(ORDER_CASES),
    order=st.permutations(range(ORDER_BATCH)),
    cut=st.integers(0, ORDER_BATCH),
)
def test_a_member_does_not_depend_on_its_batch(name, order, cut):
    # the starts in any order, split into two batches anywhere, give each
    # member the bits it has in the whole batch
    evaluate, assemble, starts = kernel_system(name)
    x, r, reason = _whole_batch(name)
    order = np.array(order, dtype=int)
    for part in (order[:cut], order[cut:]):
        xp, rp, why = lm_solve(evaluate, assemble, starts[part], target=1e-12)
        assert xp.tobytes() == x[part].tobytes()
        assert rp.tobytes() == r[part].tobytes()
        assert np.array_equal(why, reason[part])


ANGLE = MeasurementList([Angle(0, 1, 2)])
COLLINEAR = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
OFF_LINE = np.array([[0.0, 0.0], [1.0, 0.0], [1.25, 1.0]])


def _first_trial_collinear(monkeypatch):
    """The first solve after this returns the step from OFF_LINE to
    COLLINEAR, where the angle's rays are parallel; it is exact in binary,
    so the trial point is COLLINEAR to the bit."""
    solve = np.linalg.solve
    step = (COLLINEAR - OFF_LINE).ravel()
    poisoned = []

    def first_collinear(a, b):
        if poisoned:
            return solve(a, b)
        poisoned.append(1)
        return step.reshape(b.shape)

    monkeypatch.setattr(np.linalg, "solve", first_collinear)


def _run(solver):
    """solver() with the first trial made COLLINEAR, warnings as errors: its
    result, or the DegenerateMeasurement it raised."""
    monkeypatch = pytest.MonkeyPatch()
    _first_trial_collinear(monkeypatch)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return solver()
    except DegenerateMeasurement as exc:
        return exc
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("target", [np.pi / 2, np.pi - 2.0**-10], ids=["rejected", "accepted"])
def test_parallel_rays_raise_only_at_a_step_taken(target):
    # from OFF_LINE the first trial lands on COLLINEAR: against a right
    # angle it raises the cost and is rejected, and evaluating it neither
    # raises nor warns; against an angle of nearly pi it is taken, and the
    # Jacobian there raises at the next iteration, as in the serial loop
    targets = np.array([target])
    parallel, built = [], {"batched": [], "serial": []}

    def evaluate(P):
        values, grads = ANGLE.evaluate(P)
        parallel.append(grads.parallel is not None and bool(grads.parallel.any()))
        return values - targets, grads

    def assemble(grads):
        built["batched"].append(len(parallel))  # after how many evaluations
        return ANGLE.assemble(grads)

    serial_evals = []

    def resid(x):
        serial_evals.append(1)
        return ANGLE.values(x.reshape(3, 2)) - targets

    def jac(x):
        built["serial"].append(len(serial_evals))
        return ANGLE.jacobian(x.reshape(3, 2))

    got = _run(lambda: lm_solve(evaluate, assemble, OFF_LINE[None], max_iter=40, target=1e-12))
    serial = _run(lambda: serial_lm(resid, jac, OFF_LINE.ravel(), max_iter=40, target=1e-12))
    assert parallel[:2] == [False, True]  # the first trial was COLLINEAR
    assert built["batched"] == built["serial"]
    if target == np.pi / 2:
        (x,), (r,), (why,) = got
        xs, rs, whys = serial
        assert np.array_equal(x.ravel(), xs) and np.array_equal(r, rs)
        assert why == whys == CONVERGED
    else:
        assert isinstance(got, DegenerateMeasurement) and isinstance(serial, DegenerateMeasurement)
        assert "parallel rays" in str(got)
        # the Jacobians at the start and at COLLINEAR, after two evaluations
        assert built["batched"] == [1, 2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_witness_matches_serial_search(name):
    dim, ref, ms, kw = CASES[name]
    rep = point_set_witness(dim, ref, ms, restarts=RESTARTS, seed=0, **kw)
    outcomes, clusters, witness = serial_witness(name)
    assert {k: getattr(rep, k) for k in OUTCOMES} == outcomes
    assert len(rep.clusters) == len(clusters)
    for got, (representative, count, dist) in zip(rep.clusters, clusters):
        assert np.array_equal(got.representative, representative)
        assert (got.count, got.distance_to_reference) == (count, dist)
    assert (rep.witness is None) == (witness is None)
    if witness is not None:
        assert np.array_equal(rep.witness, witness)


def test_restart_outcomes_sum_to_restarts(monkeypatch):
    seen = dict.fromkeys(OUTCOMES, 0)
    for name, (dim, ref, ms, kw) in sorted(CASES.items()):
        rep = point_set_witness(dim, ref, ms, restarts=RESTARTS, seed=0, **kw)
        assert sum(getattr(rep, k) for k in OUTCOMES) == rep.restarts == RESTARTS, name
        for k in OUTCOMES:
            seen[k] += getattr(rep, k)
    # the cases between them show every outcome
    assert all(seen.values()), seen
    # a restart that stops above its target but within RESIDUAL_TOL is
    # converged, whatever stopped it: square-five's restarts that run out of
    # iterations end within 1e-3
    dim, ref, ms, _ = CASES["square-five"]
    monkeypatch.setattr(rigidity, "RESIDUAL_TOL", 1e-3)
    rep = point_set_witness(dim, ref, ms, restarts=RESTARTS, seed=0)
    assert rep.converged == RESTARTS and rep.exhausted == rep.stalled == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 2**32 - 1))
def test_a_determined_search_gives_one_cluster(n, seed):
    # staircase n-gons with angles drawn as criterion 10 draws them: every
    # converged restart lies within the cluster radius of the reference,
    # sqrt(residual_tol) of the scale, so one cluster and no witness
    angles = np.random.default_rng(seed).uniform(1.15, 1.45, size=n - 2)
    points = staircase_polygon(n, 1.0, angles).points
    rep = point_set_witness(2, points, staircase_measurements(n), restarts=40, seed=0,
                            noise=0.05, locality=0.1)
    assert rep.cluster_tol == np.sqrt(rep.residual_tol)
    assert rep.witness is None and len(rep.clusters) == 1, [c.count for c in rep.clusters]


def test_the_square_four_and_cube_ten_give_one_cluster():
    # criterion 8's four-set on the square and criterion 11's ten distances
    # on the cube, at those criteria's restart counts
    for name, restarts in (("square-four", 200), ("cube-ten", 500)):
        dim, ref, ms, kw = CASES[name]
        rep = point_set_witness(dim, ref, ms, restarts=restarts, seed=0, **kw)
        assert rep.witness is None and len(rep.clusters) == 1, name
        assert rep.clusters[0].count == rep.converged > 0, name


def test_no_restarts_is_no_converged_restart():
    dim, ref, ms, _ = CASES["square-four"]
    with pytest.raises(NoConvergedRestarts):
        point_set_witness(dim, ref, ms, restarts=0)


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, 1e3, 1e4])
def test_the_reference_coplanarity_test_is_relative(scale):
    """A triple product is cubic in length, so the reference's coplanarity
    test is relative to diam^3: a rotated cube's planar faces pass it at any
    scale (they once failed from 1e3 on), and a face lifted by 1e-6 of the
    edge fails it (it once passed below 1)."""
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    K = np.cross(np.eye(3), axis)
    R = np.eye(3) + np.sin(0.7) * K + (1.0 - np.cos(0.7)) * K @ K
    ref = scale * CUBE @ R.T
    lifted = ref.copy()
    lifted[6] += 1e-6 * scale * R[:, 2]
    ms = CUBE_TEN[:3]
    with pytest.raises(NoConvergedRestarts):
        point_set_witness(3, ref, ms, restarts=0, coplanar=CUBE_COPLANAR)
    with pytest.raises(ValueError, match="reference violates coplanarity constraint"):
        point_set_witness(3, lifted, ms, restarts=0, coplanar=CUBE_COPLANAR)


@pytest.mark.parametrize("restarts,seed,name", [(-3, 0, "restarts"), (4, -1, "seed")])
def test_negative_restarts_or_seed_is_a_value_error(restarts, seed, name):
    dim, ref, ms, _ = CASES["square-four"]
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        point_set_witness(dim, ref, ms, restarts=restarts, seed=seed)
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        octagon_distance_oracle(restarts=restarts, seed=seed)


def _add_at_jacobian(kernel, P):
    """The Jacobian as np.add.at scatters it: every head's term, then every
    tail's, each cell summed from zero in that order."""
    *batch, n, dim = P.shape
    members = int(np.prod(batch))
    G = kernel.evaluate(P)[1].G
    owners = np.concatenate([kernel._owners, kernel._owners])
    ends = np.concatenate([kernel._heads, kernel._tails])
    J = np.zeros((members, kernel.size, n, dim))
    np.add.at(
        J,
        (np.arange(members)[:, None], owners, ends),
        np.concatenate([G, -G], axis=-2).reshape(members, len(owners), dim),
    )
    return J.reshape(*batch, kernel.size, n * dim)


def _jacobian_case(name):
    """A restart case's list with its side rows, or a cube's dihedrals and
    face angles on its vertices; with the reference points."""
    if name == "cube-dihedrals":
        poly, real = platonic("cube")
        pool = build_pool(poly, "dihedrals") + build_pool(poly, "face-angles")
        return mesh_kernel(poly, pool), real.vertices
    _, ref, ms, kw = CASES[name]
    return MeasurementList(list(ms) + [Coplanar(*q) for q in kw.get("coplanar", ())]), ref


@pytest.mark.parametrize("name", sorted(CASES) + ["cube-dihedrals"])
def test_jacobian_scatter_is_np_add_at_bit_for_bit(name):
    """MeasurementList.jacobian scatters with one weighted bincount; it
    equals the np.add.at scatter bit for bit, on one point array, on the
    20 starts of a restart batch and on an empty batch."""
    kernel, ref = _jacobian_case(name)
    starts = ref + 0.3 * np.random.default_rng(3).standard_normal((20, *ref.shape))
    for P in (ref, starts, starts[:0]):
        J = kernel.jacobian(P)
        assert J.shape == P.shape[:-2] + (kernel.size, ref.size)
        assert J.tobytes() == _add_at_jacobian(kernel, P).tobytes()
    # a list with no measurement has an empty Jacobian, one member or many
    empty = MeasurementList([])
    assert empty.jacobian(ref).shape == (0, ref.size)
    assert empty.jacobian(starts).shape == (20, 0, ref.size)
