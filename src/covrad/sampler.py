"""Reproducible i.i.d. sampling from the catalog domains.

Streams are counter-based: SeedSpec(master_seed, stream_id) keys a Philox
generator, so trial t of a study can be regenerated in isolation and results
do not depend on scheduling. Gaussian variates are produced by inverse-CDF
(`ndtri`) from the uniform stream, one per uniform. `ndtri` and the arcsine
sampler's `np.cos` call the C library's math functions, so sphere, ball and
arcsine streams may differ in the last bits on another platform; cube,
interval, polyline, polyhedron and Cantor streams use only IEEE arithmetic.
Sphere and ball directions are Gaussian rows divided by `spaces.row_norms`,
an elementwise sum of squares, so no BLAS build moves them.
The tests pin each catalog domain's stream by SHA-256 on one platform.
Cantor digits are bits of raw Philox words, read with shifts and masks and
summed by elementwise IEEE arithmetic with no BLAS call, so neither byte
order nor a reduction order moves the stream (see `_cantor_points`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import spaces
from .auxfn import is_count, is_integer
from .spaces import (
    ArcsineInterval,
    Ball,
    Cantor,
    Cube,
    Domain,
    IntervalUniform,
    Polyhedron3,
    Polyline,
    Sphere,
)

GENERATOR_NAME = f"numpy.random.Philox-{np.__version__}"


@dataclass(frozen=True)
class SeedSpec:
    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        # a float would be truncated to another seed's stream without a word,
        # and a bool taken as 0 or 1
        if not all(is_integer(s) and 0 <= s < 2**64 for s in (self.master_seed, self.stream_id)):
            raise ValueError("seeds must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleSet:
    domain: Domain
    seed: SeedSpec
    points: np.ndarray  # (N, D) in the domain's ambient space, read-only


def _uniform_open(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms clamped into (0, 1) so that inverse CDFs stay finite."""
    u = rng.random(shape)
    tiny = 2.0**-53
    return np.clip(u, tiny, 1.0 - tiny, out=u)


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    u = _uniform_open(rng, shape)
    return ndtri(u, out=u)  # in place: a trial holds one array of variates, not two


def _sphere_points(rng, n, d):
    g = _gaussian(rng, (n, d + 1))
    norms = spaces.row_norms(g)
    # a zero vector has probability 0; regenerate-free clamp is fine
    norms[norms == 0.0] = 1.0
    return np.divide(g, norms[:, None], out=g)


def _ball_points(rng, n, d):
    dirs = _sphere_points(rng, n, d - 1)
    radii = _uniform_open(rng, (n, 1)) ** (1.0 / d)
    return dirs * radii


def _polyline_points(rng, n, domain: Polyline):
    probs = domain.edge_lengths / domain.total_length
    idx = rng.choice(len(probs), size=n, p=probs)
    t = rng.random((n, 1))
    a = domain.vertices[idx]
    b = domain.vertices[idx + 1]
    return a + t * (b - a)


def _polyhedron_points(rng, n, domain: Polyhedron3):
    probs = domain.tet_volumes / domain.volume
    idx = rng.choice(len(probs), size=n, p=probs)
    # folded-coordinate method: three uniforms folded into the unit simplex
    s, t, u = rng.random((3, n))
    flip = s + t > 1.0
    s[flip], t[flip] = 1.0 - s[flip], 1.0 - t[flip]
    over = t + u > 1.0
    t, u = np.where(over, 1.0 - u, t), np.where(over, 1.0 - s - t, u)
    mid = (~over) & (s + t + u > 1.0)
    s, u = np.where(mid, 1.0 - t - u, s), np.where(mid, s + t + u - 1.0, u)
    w0 = 1.0 - s - t - u
    corners = domain.vertices[np.asarray(domain.tetrahedra)[idx]]  # (n, 4, 3)
    return (w0[:, None] * corners[:, 0] + s[:, None] * corners[:, 1]
            + t[:, None] * corners[:, 2] + u[:, None] * corners[:, 3])


# _CANTOR_BLOCK[m]: integer of 8 ternary digits, 2 where m has a bit set, last at bit 0
_CANTOR_BLOCK = np.array([sum(2.0 * 3**j for j in range(8) if m >> j & 1) for m in range(256)])
_CANTOR_ROWS = 8192  # rows per chunk, which keeps the temporaries small


def _cantor_points(rng, n, domain: Cantor):
    # Digit k (1-based) is 2 where bit 63 - (k-1) % 64 of word (k-1) // 64 is set.
    # Horner from the last group of up to 32 digits, x = (x + h) / 3^c, where
    # h < 3^32 < 2^53 is the group's exact integer. x is within 2 ulp of M/3^D,
    # and is M/3^D rounded if D <= 32; above depth 64 only points whose first 32
    # digits are 0 (probability 2^-32) can miss this, and they stay within 2^-100.
    # Rows are independent, so the chunks move no bit.
    d = domain.depth
    x = np.empty(n)
    for lo in range(0, n, _CANTOR_ROWS):
        # an int64 view of the same words, so that blocks index the table as intp
        words = rng.bit_generator.random_raw((min(_CANTOR_ROWS, n - lo), -(-d // 64)))
        words = words.view(np.int64)
        part = 0.0
        for group in range(32 * ((d - 1) // 32), -1, -32):
            h = 0.0
            for start in range(group, min(group + 32, d), 8):  # 0-based first digit
                c = min(8, d - start)
                block = (words[:, start // 64] >> (64 - start % 64 - c)) & (2**c - 1)
                h = h * 3.0**c + _CANTOR_BLOCK[block]
            part = (part + h) / 3.0 ** min(32, d - group)
        x[lo:lo + len(words)] = part
    return x.reshape(n, 1)


def sample(domain: Domain, n: int, seed: SeedSpec) -> SampleSet:
    """Draw N i.i.d. points from the domain's normalized measure."""
    if not is_count(n):
        raise ValueError(f"need a positive integer count of points, got {n!r}")
    rng = seed.generator()
    if isinstance(domain, Sphere):
        pts = _sphere_points(rng, n, domain.d)
    elif isinstance(domain, Ball):
        pts = _ball_points(rng, n, domain.d)
    elif isinstance(domain, Cube):
        pts = rng.random((n, domain.d))
    elif isinstance(domain, IntervalUniform):
        pts = rng.random((n, 1))
    elif isinstance(domain, ArcsineInterval):
        pts = np.cos(math.pi * _uniform_open(rng, (n, 1)))
    elif isinstance(domain, Polyline):
        pts = _polyline_points(rng, n, domain)
    elif isinstance(domain, Polyhedron3):
        pts = _polyhedron_points(rng, n, domain)
    elif isinstance(domain, Cantor):
        pts = _cantor_points(rng, n, domain)
    else:
        raise spaces.UnsupportedDomainError(f"cannot sample {domain!r}")
    pts.setflags(write=False)
    return SampleSet(domain=domain, seed=seed, points=pts)

