"""Run invariants checked on random configs, at random instants of each run.

Each example draws a config (policy with a matching link set, load,
geometry, buffer, rate control and estimator knobs), runs it to several
random instants and to its horizon, and checks at each stop:

- per device, `mpdu_load` equals the MPDUs in its distinct queues (the
  staging pool included; under sl and greedy every queue is the pool, so
  queues are counted by identity) plus its in-flight MPDUs;
- each medium's busy time up to now and up to the horizon fits in it;
- every finished frame has a positive delay and finished by now;
- a MAC has a pending grant exactly when it contends on a medium that
  holds no exchange: the medium freezes every countdown while busy and
  resumes every one when idle.

stats.record already raises on a frame recorded twice.
"""

from hypothesis import given, settings, strategies as st

from mlosim import mld
from mlosim.scenario import LINK_SETS, Experiment, ScenarioConfig
from mlosim.stats import LOST
from mlosim.traffic import UNSET

SINGLE = [name for name, bws in LINK_SETS.items() if len(bws) == 1]
MULTI = [name for name, bws in LINK_SETS.items() if len(bws) > 1]


@st.composite
def configs(draw):
    policy = draw(st.sampled_from(mld.POLICIES))
    return ScenarioConfig(
        policy=policy,
        links=draw(st.sampled_from(SINGLE if policy == mld.SL else MULTI)),
        n_sta=draw(st.integers(1, 14)),
        sim_duration_s=draw(st.floats(0.5, 1.5)),
        activation_window_s=draw(st.floats(0.0, 0.4)),
        cell_radius_m=draw(st.floats(5.0, 40.0)),
        buffer_cap=draw(st.sampled_from([16, 64, 2048])),
        fixed_mcs=draw(st.sampled_from([None, 3, 11])),
        update_period_s=draw(st.floats(0.01, 0.5)),
        ma_window=draw(st.integers(1, 10)),
        count_own_tx=draw(st.booleans()),
        seeds=(draw(st.integers(0, 10_000)),),
    )


def check_invariants(exp: Experiment):
    now, horizon = exp.sim.now, exp.cfg.horizon_us
    for dev in exp.devices.values():
        queues = {id(q): q for q in (dev.pool, *dev.queues.values())}
        queued = sum(len(q) for q in queues.values())
        in_flight = sum(len(mac.in_flight.mpdus) for mac in dev.macs if mac.in_flight)
        assert dev.mpdu_load == queued + in_flight, (now, dev.device)
    for medium in exp.media:
        assert medium.busy_total(now) <= now
        assert medium.busy_total(horizon) <= horizon
        idle = not medium.active
        for mac in medium.macs.values():
            contends = mac in medium.contenders
            pending = contends and medium.contenders[mac][2] is not None  # its grant
            assert pending == (contends and idle), (now, mac.device)
    for frame in exp.frames:
        if frame.delay_us is not UNSET and frame.delay_us is not LOST:
            assert frame.delay_us > 0
            assert frame.arrival_time + frame.delay_us <= now


@given(configs(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
def test_run_invariants_hold_at_every_stop(cfg, fractions):
    exp = Experiment(cfg, cfg.seeds[0])
    stops = sorted(round(f * cfg.horizon_us) for f in fractions)
    for t in stops + [cfg.horizon_us]:
        exp.sim.run_until(t)
        check_invariants(exp)
