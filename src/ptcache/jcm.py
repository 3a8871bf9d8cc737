"""The classic single-cell reference scheme, implemented from scratch with
no type machinery: every size-t subset is a subfile of t packets, and
everyone transmits in every group.  It shares no placement, delivery or
decoding code with the engine, only its ``Message`` record, so it can serve
as an oracle for it."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .combinat import binomial, subsets
from .engine import IntegrityError, Message, PacketKey


def _xor(*chunks: bytes) -> bytes:
    """XOR of equal-length byte strings, in one int pass."""
    n = len(chunks[0])
    acc = 0
    for c in chunks:
        if len(c) != n:
            raise IntegrityError(f"XOR of {n} and {len(c)} bytes")
        acc ^= int.from_bytes(c, "big")
    return acc.to_bytes(n, "big")


JcmResult = namedtuple(
    "JcmResult", "K t transcript all_decoded total_bits rate per_user_cache_bits"
)


def run_jcm(
    K: int, N: int, M: int, files: Sequence[bytes], demand: Sequence[int]
) -> JcmResult:
    if (K * M) % N:
        raise ValueError(f"K*M/N = {K}*{M}/{N} is not an integer")
    t = K * M // N
    if not 1 <= t <= K - 1:
        raise ValueError(f"need 1 <= t <= K-1, got t={t}")
    demand_t = tuple(int(d) for d in demand)
    if len(demand_t) != K or any(not 1 <= d <= N for d in demand_t):
        raise ValueError("bad demand vector")
    F = t * binomial(K, t)
    (L,) = {len(f) for f in files}
    if L % F:
        raise ValueError(f"file length {L} not a multiple of {F} packets")
    B = L // F

    base = {T: t * i for i, T in enumerate(subsets(K, t))}

    def packet(n: int, T: tuple[int, ...], idx: int) -> bytes:  # idx 0-based
        start = (base[T] + idx) * B
        return files[n - 1][start : start + B]

    caches: dict[int, dict[PacketKey, bytes]] = {k: {} for k in range(1, K + 1)}
    for T in base:
        for k in T:
            for n in range(1, N + 1):
                for i in range(t):
                    caches[k][(n, T, i + 1)] = packet(n, T, i)

    transcript: list[Message] = []
    for S in subsets(K, t + 1):
        counters = {k: 0 for k in S}
        for tx in S:
            terms = []
            payload = b"\0" * B
            for k2 in S:
                if k2 == tx:
                    continue
                T = tuple(u for u in S if u != k2)
                c = counters[k2]
                counters[k2] += 1
                terms.append((k2, T, c))
                payload = _xor(payload, packet(demand_t[k2 - 1], T, c))
            transcript.append(
                Message(tx, S, tuple(k for k in S if k != tx), tuple(terms), payload)
            )

    decoded: dict[int, dict[PacketKey, bytes]] = {k: {} for k in range(1, K + 1)}
    for msg in transcript:
        for (k, T_own, c_own) in msg.terms:
            acc = msg.payload
            for (k2, T2, c2) in msg.terms:
                if k2 != k:
                    acc = _xor(acc, caches[k][(demand_t[k2 - 1], T2, c2 + 1)])
            decoded[k][(demand_t[k - 1], T_own, c_own + 1)] = acc

    ok = True
    for k in range(1, K + 1):
        want = demand_t[k - 1]
        parts = []
        for T in base:
            for i in range(1, t + 1):
                src = caches[k] if k in T else decoded[k]
                piece = src.get((want, T, i))
                if piece is None:
                    ok = False
                    break
                parts.append(piece)
        if ok and b"".join(parts) != files[want - 1]:
            ok = False
    total_bits = sum(8 * len(m.payload) for m in transcript)
    cache_bits = 8 * B * t * binomial(K - 1, t - 1) * N  # per user
    return JcmResult(
        K, t, transcript, ok, total_bits, Fraction(total_bits, 8 * L), cache_bits
    )
