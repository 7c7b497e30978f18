"""The learner runs its agent blocks on several threads (``_map_blocks``).

No result may depend on how many threads there are.  Each worker runs its
share of the items until its own first failing item; the caller waits for
every worker and then raises the error of the earliest failing item, the
one a plain loop would raise, so no block is still running when that error
reaches the caller.  The worker count is forced through the private module
value.
"""

import sys
import threading
import time

import numpy as np
import pytest

from mfglearn import learner
from mfglearn.approx import DivergenceError, Mlp
from mfglearn.envs import EnvError, demand_env
from mfglearn.learner import UPDATE_BLOCK, _agent_blocks, _map_blocks, evaluate, init_train_state, train
from mfglearn.meanfield import GridSpec

# 3 row blocks per rollout step and 13 agent blocks per update
HORIZON, N_AGENTS = 4, 5_000
PER_BLOCK = UPDATE_BLOCK // (HORIZON + 1)


def _setup():
    spec = demand_env(horizon=HORIZON)
    return spec, init_train_state(spec, GridSpec(resolution=20), seed=2, hidden=8)


def _run():
    spec, state = _setup()
    state, trace, log = train(spec, state, N_AGENTS, 2, np.random.default_rng(3))
    ev = evaluate(spec, state, N_AGENTS, np.random.default_rng(4), deterministic=False)
    return state, trace, log, ev


def test_the_run_has_several_blocks():
    assert len(_agent_blocks(N_AGENTS, 1)) == 3
    assert len(_agent_blocks(N_AGENTS, HORIZON + 1)) == 13


def test_results_do_not_depend_on_worker_count(monkeypatch):
    original = Mlp.forward_with_hidden
    threads = set()

    def recorded(self, x):
        threads.add(threading.current_thread() is threading.main_thread())
        return original(self, x)

    monkeypatch.setattr(Mlp, "forward_with_hidden", recorded)
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(learner, "_WORKERS", workers)
        threads.clear()
        runs[workers] = _run()
        assert threads == ({True} if workers == 1 else {True, False})
    ref_state, ref_trace, ref_log, ref_ev = runs[1]
    for state, trace, log, ev in (runs[2], runs[3]):
        for net, ref in ((state.actor.mean_net, ref_state.actor.mean_net),
                         (state.critic, ref_state.critic)):
            for k in ref.params:
                assert np.array_equal(net.params[k], ref.params[k])
        for col in ("episode", "mean_return", "belief_drift", "actor_grad_norm", "critic_loss"):
            assert np.array_equal(getattr(trace, col), getattr(ref_trace, col))
        assert np.array_equal(log.states, ref_log.states)
        assert np.array_equal(log.rewards, ref_log.rewards)
        for field in ("states", "actions", "rewards", "densities"):
            assert np.array_equal(getattr(ev, field), getattr(ref_ev, field))


def test_map_blocks_keeps_item_order(monkeypatch):
    monkeypatch.setattr(learner, "_WORKERS", 3)
    assert _map_blocks(lambda i: i * i, range(10)) == [i * i for i in range(10)]
    assert _map_blocks(lambda i: i, []) == []


def test_map_blocks_raises_the_earliest_error_after_every_started_item(monkeypatch):
    for workers in (3, 1):
        monkeypatch.setattr(learner, "_WORKERS", workers)
        running, lock = [], threading.Lock()

        def fn(i):
            with lock:
                running.append(i)
            try:
                if i == 4:   # fails after item 5 has failed
                    time.sleep(0.05)
                    raise EnvError("item 4")
                if i == 5:
                    raise DivergenceError("item 5")
                time.sleep(0.02)
                return i
            finally:
                with lock:
                    running.remove(i)

        with pytest.raises(EnvError, match="item 4"):
            _map_blocks(fn, range(12))
        assert running == []


def _record_starts(monkeypatch, failing):
    """Force two workers and return (fn, started): fn(i) records i with
    whether it ran on the calling thread, then raises EnvError("item i")
    when i is in ``failing``."""
    monkeypatch.setattr(learner, "_WORKERS", 2)
    started, lock = [], threading.Lock()

    def fn(i):
        with lock:
            started.append((i, threading.current_thread() is threading.main_thread()))
        if i in failing:
            raise EnvError("item %d" % i)
        time.sleep(0.01)
        return i

    return fn, started


def test_map_blocks_runs_each_share_to_its_own_first_failure(monkeypatch):
    # item 0 fails on the calling thread: the caller starts nothing more, and
    # the helper, which shares no error record with it, runs its whole share
    fn, started = _record_starts(monkeypatch, {0})
    with pytest.raises(EnvError, match="item 0$"):
        _map_blocks(fn, range(10))
    assert [i for i, caller in started if caller] == [0]
    assert [i for i, caller in started if not caller] == [1, 3, 5, 7, 9]


def test_map_blocks_raises_the_helpers_earlier_failure(monkeypatch):
    # the helper's item 1 and the caller's item 2 both fail; item 1 is earlier
    fn, started = _record_starts(monkeypatch, {1, 2})
    with pytest.raises(EnvError, match="item 1$"):
        _map_blocks(fn, range(10))
    assert [i for i, caller in started if caller] == [0, 2]
    assert [i for i, caller in started if not caller] == [1]


def test_map_blocks_under_frequent_thread_switches(monkeypatch):
    # more workers than cores, switching threads every microsecond
    monkeypatch.setattr(learner, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert _map_blocks(lambda i: float(np.full(64, i).sum()), range(200)) == [64.0 * i for i in range(200)]

            def fn(i):
                if i % 37 == 36:
                    raise EnvError("item %d" % i)
                return i

            with pytest.raises(EnvError, match="item 36$"):
                _map_blocks(fn, range(200))
    finally:
        sys.setswitchinterval(interval)


def _poison_forward(monkeypatch, error, poisoned_rows):
    """Make Mlp.forward_with_hidden raise ``error`` on a helper thread's block
    of ``poisoned_rows`` rows, and slow every other call so that blocks are
    still in flight when the error is raised.  Returns the count of calls
    running, in a one-element list."""
    original = Mlp.forward_with_hidden
    live, lock = [0], threading.Lock()

    def poisoned(self, x):
        with lock:
            live[0] += 1
        try:
            if len(x) in poisoned_rows and threading.current_thread() is not threading.main_thread():
                raise error("poisoned block")
            time.sleep(0.01)
            return original(self, x)
        finally:
            with lock:
                live[0] -= 1

    monkeypatch.setattr(Mlp, "forward_with_hidden", poisoned)
    return live


@pytest.mark.parametrize("error, poisoned_rows", [
    (DivergenceError, {len(range(N_AGENTS)[b]) for b in _agent_blocks(N_AGENTS, 1)}),   # the rollout
    (EnvError, {(HORIZON + 1) * PER_BLOCK}),                                          # td_update
], ids=["rollout", "update"])
def test_a_raising_block_stops_train_cleanly(monkeypatch, error, poisoned_rows):
    monkeypatch.setattr(learner, "_WORKERS", 2)
    with monkeypatch.context() as patch:
        live = _poison_forward(patch, error, poisoned_rows)
        spec, state = _setup()
        with pytest.raises(error, match="poisoned block"):
            train(spec, state, N_AGENTS, 1, np.random.default_rng(3))
        assert live == [0]   # no block is still running
    # the next train call in the same process runs as if nothing had failed
    spec, state = _setup()
    _, trace, _ = train(spec, state, N_AGENTS, 1, np.random.default_rng(3))
    monkeypatch.setattr(learner, "_WORKERS", 1)
    spec, ref = _setup()
    _, ref_trace, _ = train(spec, ref, N_AGENTS, 1, np.random.default_rng(3))
    for col in ("mean_return", "actor_grad_norm", "critic_loss"):
        assert np.array_equal(getattr(trace, col), getattr(ref_trace, col))
    for k in ref.critic.params:
        assert np.array_equal(state.critic.params[k], ref.critic.params[k])
