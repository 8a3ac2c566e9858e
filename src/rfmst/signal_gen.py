"""Synthetic OFDM packet corpus with per-transmitter hardware impairments.

Stands in for an over-the-air capture: every transmitter sends the same
seeded QPSK payload sequence, and the transmitters differ only through an
impairment chain (IQ imbalance, cubic AM/AM compression, carrier frequency
offset, phase-noise random walk, DC offset, AWGN).  Transmitters that share
a radio share the reference-oscillator impairments (CFO, phase-noise
bandwidth); everything else is per-transmitter.

Which corpora are valid is one rule, `_check_corpus` (profiles, seed and
SNR), that `generate_corpus` runs on its arguments before it synthesises
anything and `Corpus` on every corpus it holds, a loaded one included;
`Corpus` also checks its capture, and makes its packets the capture's
rows.

`generate_corpus` synthesises on every usable CPU (rfmst.parallel): each
process modulates whole payloads, sends each through every profile and
writes each packet into its row of one capture array that every process
shares.  Every packet draws its noise from streams seeded by (corpus
seed, transmitter, payload), never from state one packet leaves for the
next, so the corpus is the same bit for bit however many CPUs made it.

The capture is complex64: each packet's impairment chain runs in float64,
in a workspace each process reuses for all its packets, and is rounded
once, at the end, to the bytes `save_corpus` writes.  The rounding
error's power is about 150 dB below the burst and 120 dB below the
receiver noise at 30 dB, so it is lost in the noise, and a corpus holds
half the memory a complex128 one would.

`modulate` resamples the baseband burst to the capture rate with a local
polyphase resampler after `scipy.signal.resample_poly(x, up, down)` with
its default Kaiser(5.0) window; see `_resample`.  Its window comes from
np.kaiser, so it equals resample_poly to within 4e-16 of the output's
peak rather than bit for bit.  Rounding to complex64 hides that
difference: the capture is byte-equal to one made with resample_poly at
every seed checked, and a test pins it.  Importing `scipy.signal`
would load most of scipy (stats, interpolate, special and more): about
46 MB and 1.2 s per process for one function.
"""
from __future__ import annotations

import cmath
import contextlib
import functools
import hashlib
import math
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from .manifest import (as_count, as_real, build, read_array, read_manifest,
                       write_manifest)
from .parallel import fork_map, shared_zeros


@dataclass(frozen=True)
class OfdmParams:
    subcarrier_count: int = 302
    subcarrier_spacing: float = 3750.0        # Hz
    cyclic_prefix: int = 20                   # samples at baseband rate
    baseband_rate: float = 1.92e6             # samples/s
    capture_rate: float = 5e6                 # samples/s
    packet_len: int = 10_000                  # samples at capture rate
    silence_len: int = 400                    # leading zeros at capture rate
    ramp_len: int = 10                        # raised-cosine onset ramp
    burst_rms: float = 0.35                   # RMS of the burst segment
    preamble_symbols: int = 1                 # fixed sync symbols per packet

    def __post_init__(self):
        for name in ("subcarrier_count", "cyclic_prefix", "packet_len",
                     "silence_len", "ramp_len", "preamble_symbols"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier_count must be >= 1")
        for name in ("baseband_rate", "capture_rate"):
            if not float(getattr(self, name)).is_integer():
                raise ValueError(
                    f"{name} must be a whole number of samples per second")
        if not self.subcarrier_spacing > 0:
            raise ValueError("subcarrier_spacing must be > 0")
        if not (self.baseband_rate / self.subcarrier_spacing).is_integer():
            raise ValueError("baseband_rate must be a whole multiple of "
                             "subcarrier_spacing")
        if self.cyclic_prefix < 0:
            raise ValueError("cyclic_prefix must be >= 0")
        if self.capture_rate < self.baseband_rate:
            raise ValueError("capture_rate must be >= baseband_rate")
        if self.packet_len < 1:
            raise ValueError("packet_len must be >= 1")
        if self.silence_len < 0:
            raise ValueError("silence_len must be >= 0")
        if not 0 <= self.ramp_len <= self.packet_len - self.silence_len:
            raise ValueError("ramp_len must lie in 0..packet_len - silence_len")
        if not 0 < self.burst_rms < math.inf:
            raise ValueError("burst_rms must be finite and > 0")
        if self.n_fft < self.subcarrier_count + 1:
            raise ValueError("subcarrier grid does not fit the FFT size")
        if not 0 <= self.preamble_symbols <= self.n_symbols:
            raise ValueError("preamble does not fit in the packet")

    @property
    def n_fft(self) -> int:
        return int(self.baseband_rate / self.subcarrier_spacing)

    @property
    def symbol_len(self) -> int:
        return self.n_fft + self.cyclic_prefix

    @property
    def n_symbols(self) -> int:
        """OFDM symbols needed to fill the packet past the leading silence."""
        burst_capture = self.packet_len - self.silence_len
        burst_baseband = burst_capture * self.baseband_rate / self.capture_rate
        return int(math.ceil(burst_baseband / self.symbol_len)) + 1


@dataclass(frozen=True)
class TransmitterProfile:
    radio_id: str
    tx_index: int                         # 1 or 2 on each radio
    iq_gain_imbalance: float = 0.0        # relative in-phase gain error
    iq_phase_imbalance: float = 0.0       # radians of quadrature skew
    carrier_freq_offset: float = 0.0      # Hz, shared within a radio
    phase_noise_bw: float = 0.0           # Hz linewidth of the random walk
    amam_cubic_coeff: float = 0.0         # |c| < 1, compressive for c > 0
    dc_offset: complex = 0.0
    carrier_phase_jitter: float = 0.0     # radians; per-packet uniform phase

    def __post_init__(self):
        object.__setattr__(self, "tx_index",
                           as_count("tx_index", self.tx_index))
        if self.tx_index not in (1, 2):
            raise ValueError("tx_index must be 1 or 2")
        if not abs(self.amam_cubic_coeff) < 1:
            raise ValueError("|amam_cubic_coeff| must be < 1")
        for name in ("iq_gain_imbalance", "iq_phase_imbalance",
                     "carrier_freq_offset", "phase_noise_bw",
                     "amam_cubic_coeff", "carrier_phase_jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not cmath.isfinite(complex(self.dc_offset)):
            raise ValueError("dc_offset must be finite")
        if self.phase_noise_bw < 0:
            raise ValueError("phase_noise_bw must be >= 0")
        if not 0 <= self.carrier_phase_jitter <= math.pi:
            raise ValueError("carrier_phase_jitter must be within [0, pi]")

    @property
    def name(self) -> str:
        return f"{self.radio_id}_Tx{self.tx_index}"


@dataclass(frozen=True)
class IqPacket:
    samples: np.ndarray        # complex64, length packet_len; the file's bytes
    tx_label: int              # 1..N_t
    packet_id: int
    name: str                  # <radio>_Tx<n>_<packet>


QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)


def _preamble_rows(params: OfdmParams) -> np.ndarray:
    """Protocol sync preamble: fixed for every packet and transmitter, with
    an exactly balanced constellation so payload statistics stay uniform."""
    n_sc = params.subcarrier_count
    rng = np.random.default_rng(np.random.SeedSequence([0x5F9C]))
    rows = []
    for _ in range(params.preamble_symbols):
        idx = np.tile(np.arange(4), n_sc // 4 + 1)[:n_sc]
        rng.shuffle(idx)
        rows.append(QPSK_POINTS[idx])
    return np.array(rows).reshape(params.preamble_symbols, n_sc)


def generate_payload(seed: int, params: OfdmParams = OfdmParams()) -> np.ndarray:
    """QPSK symbol grid (n_symbols x subcarrier_count): the fixed protocol
    preamble followed by pseudo-random payload symbols.

    Deterministic per seed; carries no transmitter-identifying content.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x0FD, seed & 0xFFFFFFFF]))
    n_random = params.n_symbols - params.preamble_symbols
    idx = rng.integers(0, 4, size=(n_random, params.subcarrier_count))
    grid = np.concatenate([_preamble_rows(params), QPSK_POINTS[idx]], axis=0)
    return grid


# ---------------------------------------------------------------------------
# polyphase resampling, after scipy.signal.resample_poly(x, up, down) with
# its default window=('kaiser', 5.0) and zero padding.

KAISER_BETA = 5.0   # resample_poly's default window


def _lowpass_taps(numtaps: int, cutoff: float) -> np.ndarray:
    """firwin(numtaps, cutoff, window=('kaiser', KAISER_BETA)): a windowed
    sinc with unit DC gain, in firwin's order of operations.  Only the
    window comes from elsewhere, np.kaiser rather than scipy's, and it may
    differ from scipy's in the last bits of a few taps."""
    alpha = (numtaps - 1) / 2.0
    m = np.arange(0, numtaps, dtype=np.float64) - alpha
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, KAISER_BETA)
    return h / np.sum(h)


@functools.lru_cache(maxsize=4)
def _resampler(up: int, down: int, n_in: int):
    """Polyphase plan for resampling n_in samples by up/down.

    Returns (coefs, idx, pad, n_out): the float64 filter tap that output
    (m, r) applies at step k is coefs[k, r], and its sample is
    xpad[k + idx[m, r]], where xpad is the input with `pad` = (leading,
    trailing) zeros.  Outputs are laid out row-major in (m, r), so the
    first n_out of them are the resampled signal.
    """
    max_rate = max(up, down)
    half_len = 10 * max_rate
    taps = _lowpass_taps(2 * half_len + 1, 1.0 / max_rate)
    taps *= up
    n_pre_pad = down - half_len % down
    first = (half_len + n_pre_pad) // down   # outputs resample_poly drops
    n_out = -(-n_in * up // down)
    h = np.concatenate([np.zeros(n_pre_pad), taps])
    n_steps = -(-len(h) // up)
    h = np.concatenate([h, np.zeros(n_steps * up - len(h))])
    # output y uses filter phase (y*down) % up, whose taps h[j*up + phase]
    # meet x[(y*down)//up - j]; the phase repeats every `up` outputs
    y_down = (first + np.arange(up)) * down
    coefs = h.reshape(n_steps, up)[::-1, y_down % up].copy()
    rows = -(-n_out // up)
    idx = (y_down // up) + down * np.arange(rows)[:, None]
    pad = (n_steps - 1, max(0, int(idx.max()) + 1 - n_in))
    return coefs, idx, pad, n_out


def _resample(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Resample a 1-D float64 or complex128 signal by up/down.

    Equals scipy.signal.resample_poly(x, up, down) to within 4e-16 of the
    output's peak, not bit for bit: the same Kaiser-windowed filter of
    20*max(up, down) + 1 taps scaled by up, with its window from
    np.kaiser, and the same per-output accumulation as scipy's upfirdn,
    one tap at a time from the oldest sample, starting from zero.  The
    filter and its index plan are built once per (up, down, input length).
    """
    g = math.gcd(up, down)
    up, down = up // g, down // g
    if up == down == 1:
        return x.copy()
    coefs, idx, pad, n_out = _resampler(up, down, len(x))
    xpad = np.concatenate([np.zeros(pad[0], x.dtype), x,
                           np.zeros(pad[1], x.dtype)])
    out = np.zeros(idx.shape, dtype=x.dtype)
    for k, row in enumerate(coefs):
        out += xpad[k:][idx] * row
    return out.reshape(-1)[:n_out]


def modulate(payload: np.ndarray, params: OfdmParams = OfdmParams()) -> np.ndarray:
    """Ideal transmit chain: IFFT + CP per symbol, polyphase resampling to
    the capture rate, RMS scaling, onset ramp and leading silence.

    The resampler is `_resample`, which equals
    scipy.signal.resample_poly(baseband, capture_rate, baseband_rate) to
    within 4e-16 of the output's peak, not bit for bit (the module
    docstring says why the complex64 capture is still byte-equal): a
    linear-phase Kaiser(5.0) low-pass of 20*max(up, down) + 1 taps (2501
    at 5 MHz / 1.92 MHz, i.e. up/down = 125/48), designed once per rate
    pair and burst length rather than on every call.

    Returns the impairment-free packet of length packet_len.
    """
    n_sym, n_sc = payload.shape
    if n_sc != params.subcarrier_count:
        raise ValueError("payload subcarrier count does not match params")
    n_fft = params.n_fft
    half = n_sc // 2
    # centered subcarriers, DC unused: negative bins then positive bins
    bins = np.concatenate([np.arange(-half, 0), np.arange(1, n_sc - half + 1)])
    grid = np.zeros((n_sym, n_fft), dtype=complex)
    grid[:, bins % n_fft] = payload
    symbols = np.fft.ifft(grid, axis=1) * n_fft / np.sqrt(n_sc)
    with_cp = np.concatenate([symbols[:, n_fft - params.cyclic_prefix:], symbols],
                             axis=1)
    baseband = with_cp.reshape(-1)
    burst = _resample(baseband, int(params.capture_rate),
                      int(params.baseband_rate))
    rms = np.sqrt(np.mean(np.abs(burst) ** 2))
    burst = burst * (params.burst_rms / rms)
    if params.ramp_len > 0:
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(params.ramp_len)
                                 / params.ramp_len))
        burst[: params.ramp_len] *= ramp
    packet = np.concatenate([np.zeros(params.silence_len, dtype=complex), burst])
    if len(packet) < params.packet_len:
        raise ValueError("payload too short to fill the packet")
    return packet[: params.packet_len]


def _noise_rng(corpus_seed: int, tx_label: int, packet_id: int, stream: int):
    return np.random.default_rng(
        np.random.SeedSequence([0xA57, corpus_seed & 0xFFFFFFFF,
                                tx_label, packet_id, stream]))


def impairment_workspace(n: int) -> np.ndarray:
    """Scratch for `apply_impairments` on packets of n samples: three
    complex128 rows, made once and reused by every packet."""
    return np.empty((3, n), np.complex128)


@functools.lru_cache(maxsize=4)
def _sample_index(n: int) -> np.ndarray:
    """0, 1, ..., n - 1 as float64, read-only: the carrier ramp's time axis."""
    index = np.arange(n, dtype=np.float64)
    index.flags.writeable = False
    return index


def apply_impairments(packet: np.ndarray, profile: TransmitterProfile,
                      params: OfdmParams, noise_snr_db: float | None,
                      rng_phase, rng_noise, rng_carrier,
                      workspace: np.ndarray | None = None) -> np.ndarray:
    """Impairment chain in fixed order: IQ imbalance, AM/AM cubic, carrier
    rotation (CFO plus per-packet start phase, with the phase-noise walk
    added to the same phase, so one complex exp), DC offset, AWGN, drawn
    from rng_carrier, rng_phase and rng_noise.  noise_snr_db None means no
    noise; one that _check_snr rejects raises ValueError.

    The chain runs in float64 whatever the packet's dtype: the packet is
    upcast once to complex128 and never written.  It is computed in
    `workspace`, an `impairment_workspace(len(packet))`, or in one the call
    makes; the returned complex128 array is that workspace's first row, so
    with a given workspace it is the same buffer on every call, valid
    until the next.  A corpus packet is this rounded once to complex64.
    """
    x = np.asarray(packet, np.complex128)
    n = len(x)
    if workspace is None:
        workspace = impairment_workspace(n)
    out, rot = workspace[:2]
    pair = workspace[2].view(np.float64).reshape(2, n)   # float64 scratch
    u, v = pair
    silence, n_burst = params.silence_len, n - params.silence_len
    # Each step runs the ufunc of the out-of-place expression it stands for
    # (noted at its end) on the same operands, so every bit, and the sign
    # of every zero, is the same: a float operand meeting a complex one is
    # cast to f + 0j inside the ufunc, as in the expression.  A
    # normal(0, s) draw is 0.0 + s * standard_normal(); leaving out the 0.0
    # moves only a draw of exactly -0.0.
    # the receiver noise is scaled to the ideal burst's power: read it first
    noise_snr_db = _check_snr(noise_snr_db)
    if noise_snr_db is not None:
        power = np.square(np.abs(x[silence:], out=u[:n_burst]),
                          out=u[:n_burst])
        noise_power = np.mean(power) / 10 ** (noise_snr_db / 10)  # |burst|**2
        scale = np.sqrt(noise_power / 2)
    # IQ imbalance: gain error on I, quadrature skew leaking I into Q
    np.multiply(x.imag, np.cos(profile.iq_phase_imbalance), out=u)
    np.multiply(x.real, np.sin(profile.iq_phase_imbalance), out=v)
    np.add(u, v, out=v)                                   # q
    np.multiply(x.real, 1.0 + profile.iq_gain_imbalance, out=u)   # i
    np.multiply(1j, v, out=rot)
    np.add(u, rot, out=out)                               # i + 1j * q
    # memoryless cubic AM/AM compression
    if profile.amam_cubic_coeff != 0.0:
        np.square(np.abs(out, out=u), out=u)
        np.multiply(u, profile.amam_cubic_coeff, out=u)
        np.subtract(1.0, u, out=u)
        np.multiply(out, u, out=out)                      # x * (1 - c|x|^2)
    # carrier rotation: frequency offset plus the oscillator's random phase
    # at key-on (captures never see a repeatable absolute carrier phase)
    phi0 = 0.0
    if profile.carrier_phase_jitter > 0.0:
        phi0 = profile.carrier_phase_jitter * rng_carrier.uniform(-1.0, 1.0)
    phase = u
    np.multiply(2 * np.pi * profile.carrier_freq_offset, _sample_index(n),
                out=phase)
    np.divide(phase, params.capture_rate, out=phase)
    np.add(phase, phi0, out=phase)
    # phase-noise random walk with variance 2*pi*bw per second; the walk is
    # referenced to key-on (pre-burst oscillator drift is what the start
    # phase jitter term already models)
    if profile.phase_noise_bw > 0.0:
        sigma = np.sqrt(2 * np.pi * profile.phase_noise_bw / params.capture_rate)
        walk = rng_phase.standard_normal(out=v[:n_burst])
        np.multiply(walk, sigma, out=walk)
        np.cumsum(walk, out=walk)
        np.add(phase[silence:], walk, out=phase[silence:])   # cumsum(normal)
    # one complex exp for the rotation and the walk together
    if phase.any():
        np.multiply(1j, phase, out=rot)
        np.exp(rot, out=rot)
        np.multiply(out, rot, out=out)                    # x * exp(1j * phase)
    # DC offset radiates only while the transmitter is keyed; the leading
    # silence is receiver noise alone, which keeps onset thresholding honest
    np.add(out[silence:], complex(profile.dc_offset), out=out[silence:])
    # receiver noise over the whole capture: row 0 of the draw goes to I,
    # row 1 to Q, the order of two normal(size=n) calls
    if noise_snr_db is not None:
        noise_i, noise_q = rng_noise.standard_normal(out=pair)
        np.multiply(1j, noise_q, out=rot)
        np.add(noise_i, rot, out=rot)
        np.multiply(scale, rot, out=rot)
        np.add(out, rot, out=out)              # x + scale * (n_i + 1j * n_q)
    return out


def _iq_packet(samples: np.ndarray, profile: TransmitterProfile,
               tx_label: int, packet_id: int) -> IqPacket:
    return IqPacket(samples=samples, tx_label=tx_label, packet_id=packet_id,
                    name=f"{profile.name}_{packet_id:04d}")


def _impair(samples: np.ndarray, ideal: np.ndarray,
            profile: TransmitterProfile, params: OfdmParams,
            noise_snr_db: float | None, tx_label: int, packet_id: int,
            corpus_seed: int, workspace: np.ndarray | None = None) -> None:
    """Send one ideal packet through a profile's impairment chain, with the
    packet's own noise streams, and round it once into `samples`, a
    complex64 array; raises ValueError if a sample is not finite (one past
    float32's range rounds to inf)."""
    rng_phase = _noise_rng(corpus_seed, tx_label, packet_id, 1)
    rng_noise = _noise_rng(corpus_seed, tx_label, packet_id, 2)
    rng_carrier = _noise_rng(corpus_seed, tx_label, packet_id, 3)
    chain = apply_impairments(ideal, profile, params, noise_snr_db,
                              rng_phase, rng_noise, rng_carrier, workspace)
    with np.errstate(over="ignore"):
        samples[...] = chain
    if not np.isfinite(samples).all():
        raise ValueError("synthesized packet contains non-finite samples")


def synthesize_packet(payload: np.ndarray, profile: TransmitterProfile,
                      params: OfdmParams = OfdmParams(),
                      noise_snr_db: float | None = 30.0,
                      tx_label: int = 1, packet_id: int = 0,
                      corpus_seed: int = 0) -> IqPacket:
    """Modulate one payload through a transmitter profile."""
    samples = np.empty(params.packet_len, np.complex64)
    _impair(samples, modulate(payload, params), profile, params,
            noise_snr_db, tx_label, packet_id, corpus_seed)
    return _iq_packet(samples, profile, tx_label, packet_id)


def _check_snr(snr_db) -> float | None:
    """snr_db as as_real returns it, or None for no noise."""
    return None if snr_db is None else as_real("noise_snr_db", snr_db)


def _check_corpus(profiles, seed, snr_db) -> tuple[int, float | None]:
    """seed (as int) and snr_db (as _check_snr returns it) of a corpus
    generate_corpus makes: profiles that pass validate_profiles, a seed in
    [0, 2**32), since the noise streams take it modulo 2**32, and an
    snr_db that _check_snr takes; else ValueError."""
    validate_profiles(profiles)
    seed = as_count("seed", seed)
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must lie in [0, 2**32), got {seed}")
    return seed, _check_snr(snr_db)


@dataclass(frozen=True)
class Corpus:
    """A corpus generate_corpus could make, frozen once __post_init__
    checked it: seed and snr_db as _check_corpus returns them, and a
    capture of k >= 1 complex64 rows of packet_len samples per profile,
    transmitter-major, which packets holds as IqPackets that view them."""
    capture: np.ndarray
    profiles: list[TransmitterProfile]
    params: OfdmParams
    seed: int
    snr_db: float | None
    packets: list[IqPacket] = field(init=False, repr=False)

    def __post_init__(self):
        seed, snr_db = _check_corpus(self.profiles, self.seed, self.snr_db)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "snr_db", snr_db)
        capture, n_samples = self.capture, self.params.packet_len
        if not (isinstance(capture, np.ndarray) and capture.ndim == 2
                and capture.shape[1] == n_samples
                and capture.dtype == np.complex64):
            raise ValueError(f"capture is not rows of {n_samples} complex64 "
                             "samples")
        k, extra = divmod(len(capture), len(self.profiles))
        if k < 1 or extra:
            raise ValueError(f"capture of {len(capture)} packets for "
                             f"{len(self.profiles)} transmitters")
        object.__setattr__(self, "packets", [
            _iq_packet(capture[t * k + m], profile, t + 1, m)
            for t, profile in enumerate(self.profiles) for m in range(k)])

    @property
    def n_transmitters(self) -> int:
        return len(self.profiles)

    def labels(self) -> np.ndarray:
        return np.array([p.tx_label for p in self.packets])


def _profile_dict(p: TransmitterProfile) -> dict:
    d = asdict(p)
    d["dc_offset"] = [complex(p.dc_offset).real, complex(p.dc_offset).imag]
    return d


def validate_profiles(profiles: list[TransmitterProfile]) -> None:
    if not profiles:
        raise ValueError("need at least one transmitter profile")
    seen = set()
    by_radio: dict[str, list[TransmitterProfile]] = {}
    for p in profiles:
        key = (p.radio_id, p.tx_index)
        if key in seen:
            raise ValueError(f"duplicate transmitter {key}")
        seen.add(key)
        by_radio.setdefault(p.radio_id, []).append(p)
    for radio, members in by_radio.items():
        shared = {(p.carrier_freq_offset, p.phase_noise_bw) for p in members}
        if len(shared) > 1:
            raise ValueError(
                f"radio {radio}: transmitters on one radio share a reference "
                "oscillator, so carrier_freq_offset and phase_noise_bw must "
                "match")


def generate_corpus(profiles: list[TransmitterProfile], packets_per_tx: int,
                    seed: int, params: OfdmParams = OfdmParams(),
                    noise_snr_db: float | None = 30.0) -> Corpus:
    """Send the same seeded payload sequence through every profile.

    Each payload is modulated once, and its ideal packet is shared by every
    transmitter's impairment chain; the shared packets are read-only, so
    an impairment that wrote into its input would raise instead of
    corrupting the other transmitters' packets.  The result equals
    `synthesize_packet` called packet by packet, bit for bit.

    The corpus's capture is one (len(profiles) * packets_per_tx,
    packet_len) complex64 array in shared memory
    (rfmst.parallel.shared_zeros), and each packet is a row of it.  Each
    process of rfmst.parallel.fork_map modulates the payloads it takes,
    sends each through every profile in its copy of one impairment
    workspace made before the fork, and writes each packet straight into
    its row, so no sample crosses a pipe; the module docstring says why
    the CPU count changes no bit.

    tx_label follows the profile list order (1-based), and the rows are
    transmitter-major, as Corpus reads them.  packets_per_tx must be an
    integer >= 1; _check_corpus checks the rest, both before anything is
    synthesised.
    """
    if as_count("packets_per_tx", packets_per_tx) < 1:
        raise ValueError("packets_per_tx must be >= 1")
    seed, noise_snr_db = _check_corpus(profiles, seed, noise_snr_db)
    capture = shared_zeros((len(profiles) * packets_per_tx, params.packet_len),
                           np.complex64)
    workspace = impairment_workspace(params.packet_len)

    def synthesise(m):
        ideal = modulate(generate_payload(seed * 1_000_003 + m, params), params)
        ideal.flags.writeable = False
        for t, profile in enumerate(profiles):
            _impair(capture[t * packets_per_tx + m], ideal, profile, params,
                    noise_snr_db, tx_label=t + 1, packet_id=m,
                    corpus_seed=seed, workspace=workspace)

    with contextlib.closing(fork_map(synthesise, packets_per_tx)) as done:
        for _ in done:
            pass
    return Corpus(capture=capture, profiles=list(profiles), params=params,
                  seed=seed, snr_db=noise_snr_db)


# ---------------------------------------------------------------------------
# frozen default transmitter set: six radios, two transmitters each.
# Y10v2_Tx2 is the deliberately broken outlier unit.  The set does not make
# raw features hard to match: at 30 dB, a 1-NN classifier on the
# normalised features comes close to MST on both benchmark workloads.

_RADIO_DEFS = [
    # radio_id, cfo_hz, phase_noise_bw_hz
    ("Y06v2", -21_400.0, 640.0),
    ("R05v1", -12_700.0, 920.0),
    ("R04v1", -4_300.0, 1_260.0),
    ("Y04v2", 3_900.0, 780.0),
    ("R03v1", 12_300.0, 1_080.0),
    ("Y10v2", 20_800.0, 1_560.0),
]

_TX_DEFS = {
    # (radio_id, tx_index): gain_imb, phase_imb, cubic, dc_offset
    ("Y06v2", 1): (0.030, 0.025, 0.06, 0.018 + 0.008j),
    ("Y06v2", 2): (-0.070, -0.055, 0.22, -0.012 + 0.030j),
    ("R05v1", 1): (0.110, 0.085, 0.38, 0.035 - 0.015j),
    ("R05v1", 2): (-0.150, -0.115, 0.10, -0.028 - 0.024j),
    ("R04v1", 1): (0.190, 0.145, 0.30, 0.044 + 0.020j),
    ("R04v1", 2): (-0.230, -0.175, 0.14, -0.018 + 0.042j),
    ("Y04v2", 1): (0.270, 0.205, 0.46, 0.052 - 0.028j),
    ("Y04v2", 2): (-0.310, -0.235, 0.18, -0.040 - 0.035j),
    ("R03v1", 1): (0.350, 0.265, 0.34, 0.060 + 0.032j),
    ("R03v1", 2): (-0.390, -0.295, 0.08, -0.033 + 0.055j),
    ("Y10v2", 1): (0.430, 0.325, 0.42, 0.068 - 0.040j),
    ("Y10v2", 2): (0.600, 0.450, 0.60, 0.110 + 0.085j),  # bad via
}


def default_profiles() -> list[TransmitterProfile]:
    profiles = []
    for radio_id, cfo, pn_bw in _RADIO_DEFS:
        for tx in (1, 2):
            gain, phase, cubic, dc = _TX_DEFS[(radio_id, tx)]
            profiles.append(TransmitterProfile(
                radio_id=radio_id, tx_index=tx,
                iq_gain_imbalance=gain, iq_phase_imbalance=phase,
                carrier_freq_offset=cfo, phase_noise_bw=pn_bw,
                amam_cubic_coeff=cubic, dc_offset=dc,
                carrier_phase_jitter=0.25))
    return profiles


# ---------------------------------------------------------------------------
# disk format: manifest.json plus samples.c64, the capture as it is, row
# after row, as little-endian complex64 ("<c8"): interleaved float32 I/Q,
# the layout of an SDR file sink.  The samples are already complex64, so a
# save -> load round trip is byte-exact.  The manifest holds the seed, the
# SNR, the params, the profiles, packets_per_tx, from which the packet
# labels and ids follow, and samples_hash, the first 16 hex digits of the
# sha256 of samples.c64, and names no file; write_manifest signs it with
# its digest.


def save_corpus(corpus: Corpus, out_dir) -> Path:
    """Write a corpus, which Corpus has checked, as it is: its capture to
    samples.c64, and its packets_per_tx and the capture's samples_hash to
    the manifest beside it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    capture = np.ascontiguousarray(corpus.capture, "<c8")
    capture.tofile(out / "samples.c64")
    write_manifest(out, {
        "seed": corpus.seed,
        "snr_db": corpus.snr_db,
        "params": asdict(corpus.params),
        "profiles": [_profile_dict(p) for p in corpus.profiles],
        "packets_per_tx": len(capture) // corpus.n_transmitters,
        "samples_hash": hashlib.sha256(capture).hexdigest()[:16],
    })
    return out


def load_corpus(in_dir) -> Corpus:
    """Read a corpus that save_corpus wrote.  A manifest that does not
    match its digest, a manifest key or JSON type that is wrong, a
    samples.c64 that does not hold exactly packets_per_tx packets of
    packet_len samples per transmitter, does not hash to samples_hash or
    holds a sample that is not finite, or a corpus that OfdmParams,
    TransmitterProfile or Corpus rejects, raises ValueError naming the
    manifest."""
    path = Path(in_dir) / "manifest.json"
    manifest = read_manifest(path, ("seed", "snr_db", "params", "profiles",
                                    "packets_per_tx", "samples_hash"),
                             profiles=list, packets_per_tx=int)
    params = build(OfdmParams, manifest["params"], path)
    profiles = [build(TransmitterProfile, d, path,
                      dc_offset=lambda v: complex(*v))
                for d in manifest["profiles"]]
    capture = read_array(path, "samples.c64", "<c8", (
        len(profiles) * manifest["packets_per_tx"], params.packet_len))
    if hashlib.sha256(capture).hexdigest()[:16] != manifest["samples_hash"]:
        raise ValueError(f"{path}: samples.c64 does not hash to its "
                         "samples_hash")
    bad = np.flatnonzero(~np.isfinite(capture).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: samples.c64 packet {bad[0]} holds a "
                         "sample that is not finite")
    return build(Corpus, dict(capture=capture, profiles=profiles,
                              params=params, seed=manifest["seed"],
                              snr_db=manifest["snr_db"]), path)
