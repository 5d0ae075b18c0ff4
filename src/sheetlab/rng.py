"""Counter-based random streams for order-independent parallel Monte Carlo.

A stream is ``substream``: a Philox generator keyed by the user seed and
positioned by (domain, stream, channel) counter words.  Streams built this way
are statistically independent, cheap to construct, and do not care in which
order they are consumed — the property that makes particle loops and nested
common/idiosyncratic noise hierarchies reproducible bit-for-bit for any
execution schedule.

Building a Generator costs more than drawing a small sheet from it, so the
one cell-noise sampler, ``noise._draw_cells``, reads its streams through
``_substreams``: one Philox bit generator, built at the first stream and reset
to each later stream's fresh state.  It draws exactly what ``substream``
draws, which stays the definition of a stream.  The one other draw, the
est-check experiment's couplings, takes a ``substream`` of its own.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_SALT = 0x9E3779B97F4A7C15  # fixed key word; distinguishes this library's streams

# Domain tags: independent uses of the same user seed must never collide.
DOMAIN_SHEET = 1
DOMAIN_ENSEMBLE = 2
DOMAIN_CHAOS = 3
DOMAIN_CONTROL = 4
DOMAIN_REPLICATE = 5  # replicate-keyed ensemble noise (Monte Carlo over ensembles)
DOMAIN_COUPLINGS = 6  # the est-check experiment's Gaussian couplings


def _key(seed: int) -> np.ndarray:
    return np.array([seed & _MASK64, _SALT], dtype=np.uint64)


def _counter(domain: int, stream: int, channel: int) -> np.ndarray:
    return np.array([0, channel & _MASK64, stream & _MASK64, domain & _MASK64], dtype=np.uint64)


def substream(seed: int, domain: int, stream: int = 0, channel: int = 0) -> np.random.Generator:
    """Independent generator for the coordinates (seed, domain, stream, channel).

    The counter's first word is left at zero as the draw index; each stream
    therefore has 2**64 draws before any overlap, far beyond desk scale.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed), counter=_counter(domain, stream, channel)))


def _substreams(seed: int, domain: int, coordinates):
    """For each (stream, channel) of ``coordinates``, yield a generator in the
    state ``substream(seed, domain, stream, channel)`` starts from.

    Every yield is the same Generator on one reused bit generator, so each
    must be drawn from before the next is requested.  The first stream is the
    bit generator as built; for each later one the whole fresh state is
    written, the spent buffer and the cached 32-bit half included: a stale one
    would shift every later draw.
    """
    key = _key(seed)
    coordinates = iter(coordinates)
    first = next(coordinates, None)
    if first is None:
        return
    bits = np.random.Philox(key=key, counter=_counter(domain, *first))
    gen = np.random.Generator(bits)
    yield gen
    for stream, channel in coordinates:
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _counter(domain, stream, channel), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen
