"""Tests for synthetic load and the RTT experiment (Figures 8–9)."""

import random

import pytest

from repro.errors import NetworkError
from repro.net import Link, Pinger, PoissonLoadGenerator, run_ping_experiment
from repro.net.ping import poisson_probes
from repro.sim import Simulator


def test_generator_validation():
    sim = Simulator()
    link = Link(sim)
    with pytest.raises(NetworkError):
        PoissonLoadGenerator(sim, link, -1.0, random.Random(0))
    with pytest.raises(NetworkError):
        PoissonLoadGenerator(sim, link, 1.0, random.Random(0), packet_bytes=0)


def test_zero_load_sends_nothing():
    sim = Simulator()
    link = Link(sim)
    gen = PoissonLoadGenerator(sim, link, 0.0, random.Random(0))
    sim.run_until(1000.0)
    assert gen.packets_offered == 0


def test_offered_load_close_to_target():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=100.0)  # plenty of headroom
    gen = PoissonLoadGenerator(sim, link, 5.0, random.Random(1))
    sim.run_until(20_000.0)
    achieved = link.utilization(0.0, 20_000.0) * 100.0
    assert achieved == pytest.approx(5.0, rel=0.1)


def test_generator_stop():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=100.0)
    gen = PoissonLoadGenerator(sim, link, 5.0, random.Random(1))
    sim.run_until(1000.0)
    count = gen.packets_offered
    gen.stop()
    sim.run_until(5000.0)
    assert gen.packets_offered == count


def test_pinger_on_idle_link_sees_transmission_plus_propagation():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.05)
    pinger = Pinger(sim, link)
    sim.run_until(10_000.0)
    pinger.stop()
    assert len(pinger.rtts_ms) == 9  # one per second after t=1000
    # 64 bytes at 10Mbps = 0.0512ms each way, + 2 propagations.
    expected = 2 * (64 / 1250.0) + 2 * 0.05
    assert pinger.rtts_ms[0] == pytest.approx(expected, rel=1e-6)


def test_rtt_grows_with_offered_load():
    """Figure 8's shape: flat then a knee near saturation."""
    results = run_ping_experiment(
        [0.0, 6.0, 9.6], duration_ms=30_000.0, seed=4
    )
    r0, r6, r96 = results
    assert r0.mean_rtt_ms < 1.0
    assert r6.mean_rtt_ms > r0.mean_rtt_ms
    assert r96.mean_rtt_ms > 10 * r6.mean_rtt_ms  # explosion near saturation


def test_jitter_explodes_near_saturation():
    """Figure 9's shape: variance flat, then explodes."""
    results = run_ping_experiment(
        [1.0, 9.6], duration_ms=30_000.0, seed=4
    )
    low, high = results
    assert high.rtt_variance > 100 * max(low.rtt_variance, 1e-9)


def test_ping_experiment_deterministic():
    a = run_ping_experiment([5.0], duration_ms=5_000.0, seed=9)
    b = run_ping_experiment([5.0], duration_ms=5_000.0, seed=9)
    assert a[0].rtts_ms == b[0].rtts_ms


class RecordingLink(Link):
    """A link that remembers every send: ``(time, channel)``."""

    def __init__(self, sim):
        super().__init__(sim, bandwidth_mbps=10.0, propagation_ms=0.05)
        self.sends = []

    def send(self, packet, on_delivered=None):
        self.sends.append((self.sim.now, packet.channel))
        super().send(packet, on_delivered)


def run_probes(*, echo, seed=7, interval_ms=5.0, warmup_ms=100.0, until=400.0):
    sim = Simulator()
    link = RecordingLink(sim)
    rng = random.Random(seed)
    samples, sends_before = [], []
    poisson_probes(
        sim,
        link,
        rng,
        interval_ms,
        warmup_ms,
        lambda sent_at, delay: samples.append((sent_at, delay)),
        echo=echo,
        on_send=lambda sent_at: sends_before.append((sent_at, len(link.sends))),
    )
    sim.run_until(until)
    probes = [t for t, channel in link.sends if channel == "probe"]
    return link, rng, probes, samples, sends_before


def test_poisson_probe_warmup_is_sent_but_not_sampled():
    link, __, probes, samples, __2 = run_probes(echo=False)
    warm = [t for t in probes if t < 100.0]
    assert warm, "the warmup window should carry probes"
    assert all(channel == "probe" for __, channel in link.sends)
    measured = [t for t in probes if t >= 100.0]
    sampled = [sent_at for sent_at, __ in samples]
    # Only the last probe may still be on the wire at the horizon.
    assert sampled == measured[: len(sampled)]
    assert len(sampled) >= len(measured) - 1
    # One transit: 64 bytes at 10 Mbps plus propagation, more when queued.
    delays = [d for __, d in samples]
    assert min(delays) == pytest.approx(64 / 1250.0 + 0.05, rel=1e-6)


def test_poisson_probe_on_send_fires_after_warmup_before_the_send():
    link, __, probes, __2, sends_before = run_probes(echo=False)
    assert [t for t, __ in sends_before] == [t for t in probes if t >= 100.0]
    for sent_at, index in sends_before:
        # The probe's own send is the next one on the wire.
        assert link.sends[index] == (sent_at, "probe")


def test_poisson_probe_echo_samples_cover_both_transits():
    link, __, probes, samples, __2 = run_probes(echo=True)
    echoes = [t for t, channel in link.sends if channel == "probe_echo"]
    # Every delivered request echoes, warmup probes included.
    assert len(echoes) >= len(probes) - 1
    assert any(t < 100.0 for t in echoes)
    # Request and echo each cross the wire: no sample beats two transits.
    round_trip = 2 * (64 / 1250.0 + 0.05)
    delays = [d for __, d in samples]
    assert min(delays) == pytest.approx(round_trip, rel=1e-6)


@pytest.mark.parametrize("echo", [False, True])
def test_poisson_probe_draws_once_per_probe(echo):
    __, rng, probes, __2, __3 = run_probes(echo=echo)
    reference = random.Random(7)
    # One draw per probe sent, plus the draw that scheduled the next one.
    for __ in range(len(probes) + 1):
        reference.expovariate(1.0 / 5.0)
    assert rng.getstate() == reference.getstate()


def test_poisson_probes_without_warmup_sample_every_probe():
    __, __2, probes, __3, sends_before = run_probes(echo=False, warmup_ms=0.0)
    assert [t for t, __ in sends_before] == probes


def test_poisson_probes_same_seed_same_samples():
    first = run_probes(echo=True, seed=3)[3]
    second = run_probes(echo=True, seed=3)[3]
    assert first == second and first
