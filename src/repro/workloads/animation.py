"""Animated user-interface workloads (§6.1.3, Figures 4–7).

"Perhaps the most visible user application trend over recent years has been
the increasing richness and sophistication of graphical interfaces ...
animations often run asynchronously of user interaction."  This module
builds the paper's animation scenarios:

* the 10-frame, 20 Hz GIF displayed over X, LBX, and RDP (Figure 5);
* the synthetic web page "modeled after http://www.msnbc.com/" with an
  animated 468x60 banner advertisement and a scrolling news ticker
  (Figure 4) — whose combined frame sets overflow the client's 1.5 MB
  bitmap cache while each alone fits, producing the paper's dramatic
  non-linearity;
* the cache-overflow study (Figure 6: a 66-frame looping animation) and
  the frame-count sweep with the cliff above 65 frames (Figure 7).

Frame geometry and compression are calibrated so a banner-class frame
caches at 23,868 bytes — exactly 65 of them fit in the 1.5 MB cache, the
paper's measured cliff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..gui.drawing import Bitmap, DrawBitmap
from ..net.framing import TCPIP, wire_bytes
from ..protocols import RDPProtocol, RemoteDisplayProtocol, make_protocol
from ..sim.engine import Simulator
from ..sim.trace import ByteTrace


@dataclass(frozen=True)
class AnimationSpec:
    """One animated element: geometry, frame set, and timing."""

    name: str
    width: int
    height: int
    bpp: int
    compressed_ratio: float  #: GIF/RLE compressibility of a frame
    frame_count: int
    frame_interval_ms: float
    loop: bool = True
    fresh_frames_per_cycle: int = 0  #: frames with new content each cycle
    pause_ms: float = 0.0  #: idle gap between cycles (ticker rewind)

    def __post_init__(self) -> None:
        if self.frame_count <= 0:
            raise WorkloadError("animation needs at least one frame")
        if self.frame_interval_ms <= 0:
            raise WorkloadError("frame interval must be positive")
        if self.fresh_frames_per_cycle > self.frame_count:
            raise WorkloadError("more fresh frames than frames")

    def frame_bitmap(self, index: int, cycle: int) -> Bitmap:
        """The bitmap for frame *index* of loop iteration *cycle*.

        The first ``fresh_frames_per_cycle`` frame slots carry new content
        each cycle (new bitmap ids — a ticker's updated headlines); the
        rest repeat across cycles and are cacheable.
        """
        if not 0 <= index < self.frame_count:
            raise WorkloadError(f"frame {index} out of range")
        if index < self.fresh_frames_per_cycle:
            bitmap_id = f"{self.name}:c{cycle}:f{index}"
        else:
            bitmap_id = f"{self.name}:f{index}"
        return Bitmap(
            bitmap_id=bitmap_id,
            width=self.width,
            height=self.height,
            bpp=self.bpp,
            compressed_ratio=self.compressed_ratio,
        )

    @property
    def frame_cached_bytes(self) -> int:
        """Bytes one frame occupies in a client bitmap cache."""
        return self.frame_bitmap(self.frame_count - 1, 0).compressed_bytes

    @property
    def cycle_ms(self) -> float:
        """Wall time of one loop iteration including the pause."""
        return self.frame_count * self.frame_interval_ms + self.pause_ms


def banner_ad(frame_count: int = 15, frame_interval_ms: float = 400.0) -> AnimationSpec:
    """The animated 468x60 GIF banner advertisement of Figure 4."""
    return AnimationSpec(
        name="banner",
        width=468,
        height=60,
        bpp=8,
        compressed_ratio=0.85,
        frame_count=frame_count,
        frame_interval_ms=frame_interval_ms,
    )


def marquee(
    phases: int = 65,
    frame_interval_ms: float = 100.0,
    fresh_frames_per_cycle: int = 2,
    pause_ms: float = 2000.0,
) -> AnimationSpec:
    """The scrolling HTML news ticker of Figure 4.

    Each scroll phase redraws the ticker strip; the cycle pauses before
    rewinding (the periodicity visible in the paper's Figure 4 trace), and
    a few phases per cycle carry fresh headline content.

    Geometry calibration: the phase set alone (~1.40 MB) fits the 1.5 MB
    client cache, but with the banner's frames added the combined set
    overflows it; once thrashing, marquee misses insert bytes fast enough
    that the LRU reuse window stays *shorter* than both elements'
    re-reference periods, so the thrashing is self-sustaining — the
    paper's non-linearity.
    """
    return AnimationSpec(
        name="marquee",
        width=600,
        height=40,
        bpp=8,
        compressed_ratio=0.9,
        frame_count=phases,
        frame_interval_ms=frame_interval_ms,
        fresh_frames_per_cycle=fresh_frames_per_cycle,
        pause_ms=pause_ms,
    )


def gif_10_frame(frame_interval_ms: float = 50.0) -> AnimationSpec:
    """Figure 5's GIF: 10 frames at a 50 ms delay (20 Hz)."""
    return AnimationSpec(
        name="gif10",
        width=468,
        height=60,
        bpp=4,
        compressed_ratio=1.0,
        frame_count=10,
        frame_interval_ms=frame_interval_ms,
    )


def dateline_animation(frame_count: int) -> AnimationSpec:
    """Figure 7's 'Dateline NBC' animation at a given frame count (5 fps)."""
    return AnimationSpec(
        name=f"dateline{frame_count}",
        width=468,
        height=60,
        bpp=8,
        compressed_ratio=0.85,
        frame_count=frame_count,
        frame_interval_ms=200.0,
    )


class DisplayLoadRecorder:
    """Feeds display steps to a protocol and records wire bytes over time."""

    def __init__(self, sim: Simulator, protocol: RemoteDisplayProtocol) -> None:
        self.sim = sim
        self.protocol = protocol
        self.trace = ByteTrace(protocol.name)
        self.messages = 0
        self.encode_cpu_ms = 0.0

    def display(self, ops: Sequence) -> None:
        """Encode one step's ops and record their wire bytes now."""
        messages = self.protocol.encode_display_step(ops)
        self.messages += len(messages)
        self.encode_cpu_ms += self.protocol.encode_cost_ms(messages)
        for message in messages:
            self.trace.record(self.sim.now, wire_bytes(message.payload_bytes, TCPIP))


class AnimationPlayer:
    """Plays an :class:`AnimationSpec`, emitting one DrawBitmap per frame."""

    def __init__(
        self,
        sim: Simulator,
        spec: AnimationSpec,
        on_frame: Callable[[DrawBitmap], None],
        *,
        start_ms: float = 0.0,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.on_frame = on_frame
        self.frames_shown = 0
        self._index = 0
        self._cycle = 0
        self._stopped = False
        self._event = sim.schedule(start_ms, self._show_frame)

    def _show_frame(self) -> None:
        if self._stopped:
            return
        bitmap = self.spec.frame_bitmap(self._index, self._cycle)
        self.on_frame(DrawBitmap(bitmap))
        self.frames_shown += 1
        self._index += 1
        delay = self.spec.frame_interval_ms
        if self._index >= self.spec.frame_count:
            if not self.spec.loop:
                return
            self._index = 0
            self._cycle += 1
            delay += self.spec.pause_ms
        self._event = self.sim.schedule(delay, self._show_frame)

    def stop(self) -> None:
        """Halt playback."""
        self._stopped = True
        self._event.cancel()


@dataclass
class AnimationRunResult:
    """A recorded animation run over one protocol."""

    protocol: str
    duration_ms: float
    trace: ByteTrace
    messages: int
    frames_shown: int
    cache_hit_ratio: Optional[float] = None

    def load_series(self, window_ms: float) -> Tuple[List[float], List[float]]:
        """Windowed Mbps over the whole run (a figure's series)."""
        return self.trace.load_series(0.0, self.duration_ms, window_ms)

    def average_mbps(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Mean load over a window (defaults to the whole run)."""
        return self.trace.average_mbps(t0, self.duration_ms if t1 is None else t1)


def run_animations_over_protocol(
    protocol_name: str,
    specs: Sequence[AnimationSpec],
    duration_ms: float,
) -> AnimationRunResult:
    """Play *specs* concurrently over a fresh protocol session.

    Returns the wire-byte trace, from which Figures 4, 5, and 7 read their
    load series.
    """
    if duration_ms <= 0:
        raise WorkloadError("duration must be positive")
    sim = Simulator()
    protocol = make_protocol(protocol_name)
    recorder = DisplayLoadRecorder(sim, protocol)
    players = [
        AnimationPlayer(sim, spec, lambda op: recorder.display([op]))
        for spec in specs
    ]
    sim.run_until(duration_ms)
    for player in players:
        player.stop()
    hit_ratio = None
    if isinstance(protocol, RDPProtocol):
        hit_ratio = protocol.cache.stats.cumulative_hit_ratio
    return AnimationRunResult(
        protocol=protocol_name,
        duration_ms=duration_ms,
        trace=recorder.trace,
        messages=recorder.messages,
        frames_shown=sum(p.frames_shown for p in players),
        cache_hit_ratio=hit_ratio,
    )


# --- Figure 4: the synthetic MSNBC-style web page ---------------------------

FIG4_VARIANTS = ("both", "marquee", "banner")


def run_webpage_experiment(
    variant: str, duration_ms: float = 160_000.0
) -> AnimationRunResult:
    """Figure 4: the synthetic web page over RDP.

    ``variant`` selects "marquee", "banner", or "both".  Each element's
    frame set alone fits the 1.5 MB client cache; together they overflow
    it, and network load rises non-linearly (§6.1.3).
    """
    if variant not in FIG4_VARIANTS:
        raise WorkloadError(
            f"unknown variant {variant!r}; expected one of {FIG4_VARIANTS}"
        )
    specs: List[AnimationSpec] = []
    if variant in ("both", "marquee"):
        specs.append(marquee())
    if variant in ("both", "banner"):
        specs.append(banner_ad())
    return run_animations_over_protocol("rdp", specs, duration_ms)


# --- Figure 5: one GIF over X, LBX, and RDP ---------------------------------

def run_gif_protocol_comparison(
    duration_ms: float = 5_000.0,
) -> Dict[str, AnimationRunResult]:
    """Figure 5: the 10-frame 20 Hz GIF over each protocol."""
    return {
        name: run_animations_over_protocol(name, [gif_10_frame()], duration_ms)
        for name in ("x", "lbx", "rdp")
    }


# --- Figure 6: cache overflow — hit ratio and CPU utilization ----------------

@dataclass
class CacheOverflowResult:
    """Figure 6's two series plus the underlying counters."""

    times_ms: List[float]
    cpu_utilization: List[float]
    cumulative_hit_ratio: List[float]
    final_hit_ratio: float


def run_cache_overflow_experiment(
    frame_count: int = 66,
    duration_ms: float = 60_000.0,
    *,
    warmup_ui_ms: float = 5_000.0,
    window_ms: float = 1_000.0,
) -> CacheOverflowResult:
    """Figure 6: a looping animation one frame too big for the cache.

    The session first paints ordinary UI (icons and buttons that re-draw
    and *hit*, which is why the cumulative ratio starts high), then the
    66-frame loop starts and every frame access misses: the cumulative
    ratio "falls asymptotically toward zero with each subsequent miss"
    while the server CPU stays busy re-sending frames.
    """
    sim = Simulator()
    protocol = RDPProtocol()
    recorder = DisplayLoadRecorder(sim, protocol)

    # Warmup UI: a rotation of small cacheable icons, re-drawn often.
    icons = [
        Bitmap(f"icon{i}", 32, 32, 8, compressed_ratio=0.9) for i in range(24)
    ]
    icon_state = {"count": 0}

    def draw_icon() -> None:
        icon = icons[icon_state["count"] % len(icons)]
        icon_state["count"] += 1
        recorder.display([DrawBitmap(icon)])

    icon_task = sim.every(50.0, draw_icon, start=0.0)
    sim.schedule(warmup_ui_ms, icon_task.stop)

    player_holder: Dict[str, AnimationPlayer] = {}

    def start_animation() -> None:
        player_holder["player"] = AnimationPlayer(
            sim,
            dateline_animation(frame_count),
            lambda op: recorder.display([op]),
        )

    sim.schedule(warmup_ui_ms, start_animation)

    times: List[float] = []
    utils: List[float] = []
    ratios: List[float] = []
    state = {"last_cpu": 0.0}

    def sample() -> None:
        times.append(sim.now)
        utils.append((recorder.encode_cpu_ms - state["last_cpu"]) / window_ms)
        state["last_cpu"] = recorder.encode_cpu_ms
        ratios.append(protocol.cache.stats.cumulative_hit_ratio)

    sample_task = sim.every(window_ms, sample)
    sim.run_until(duration_ms)
    sample_task.stop()
    if "player" in player_holder:
        player_holder["player"].stop()
    return CacheOverflowResult(
        times_ms=times,
        cpu_utilization=utils,
        cumulative_hit_ratio=ratios,
        final_hit_ratio=protocol.cache.stats.cumulative_hit_ratio,
    )


# --- Figure 7: the frame-count sweep and the 65-frame cliff -------------------

def run_frame_count_sweep(
    frame_counts: Sequence[int],
    *,
    duration_ms: float = 60_000.0,
    warmup_cycles: int = 1,
    loop_aware_cache: bool = False,
) -> List[Tuple[int, float]]:
    """Figure 7: steady-state network load vs animation frame count.

    Measures average Mbps *after* the first cycle (so the compulsory
    first transfer of every frame doesn't mask the caching behaviour).
    Set ``loop_aware_cache`` for the ablation with the paper's suggested
    loop-detecting eviction scheme.
    """
    from ..protocols.bitmapcache import LoopAwareBitmapCache

    results: List[Tuple[int, float]] = []
    for frame_count in frame_counts:
        spec = dateline_animation(frame_count)
        sim = Simulator()
        if loop_aware_cache:
            protocol = RDPProtocol(cache=LoopAwareBitmapCache())
        else:
            protocol = RDPProtocol()
        recorder = DisplayLoadRecorder(sim, protocol)
        player = AnimationPlayer(
            sim, spec, lambda op: recorder.display([op])
        )
        sim.run_until(duration_ms)
        player.stop()
        warmup_ms = warmup_cycles * spec.cycle_ms
        if warmup_ms >= duration_ms:
            raise WorkloadError("duration too short for the warmup cycle")
        mbps = recorder.trace.average_mbps(warmup_ms, duration_ms)
        results.append((frame_count, mbps))
    return results
