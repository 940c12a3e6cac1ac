"""CSV text of float64 blocks, byte-identical to ``repr`` of each float.

``format_rows`` finds every value's shortest round-trip digits with
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) on
uint64 arrays and lays them out by ``repr``'s rules: fixed notation for
-4 < decpt <= 16, with ``.0`` on integral values, else ``d.ddde+XX``.
Non-finite values are written by ``repr`` itself.  Every uint64 operation
takes uint64 operands: numpy < 2 turns uint64 with int64 into float64.
"""

from __future__ import annotations

import functools

import numpy as np

U = np.uint64
# The most values formatted at once: bounds the transient arrays to ~2 MiB.
CHUNK = 8192
K_MIN, K_MAX = -324, 292
M32, M63 = U(2**32 - 1), U(2**63 - 1)
# A value's source row: NUL (the padding), "0", the sign ("-" or NUL), 17
# digits, "0" and three exponent digits, ".", "e", the exponent's sign, and
# the field's terminator.  A field is a gather of its shape's columns.
ROW, ZERO, SIGN, FIRST, EXPONENT, DOT, E, EXP_SIGN, END = 28, 1, 2, 3, 20, 24, 25, 26, 27
WIDTH = 25  # the longest field, "-d.dddddddddddddddde-ddd", and its terminator
# Shape ids: (decpt + 3) * 17 + n - 1 for fixed notation with n digits,
# SCIENTIFIC + 2 (n - 1) + (three exponent digits), and the non-finite.
SCIENTIFIC, LITERAL = 340, 374


def _patterns() -> np.ndarray:
    """Each shape's source columns, then 0 (NUL)."""
    # Fixed notation: `whole` digits before the point, `fraction` after it.
    d, n, p = np.arange(-3, 17)[:, None, None], np.arange(1, 18)[:, None], np.arange(WIDTH - 1)
    whole, fraction = np.maximum(d, 1), np.maximum(n - d, 1)
    digit = d + p - whole - 1
    fixed = np.select(
        [p < whole, p == whole, p <= whole + fraction, p == whole + fraction + 1],
        [np.where((d > 0) & (p < n), FIRST + p, ZERO), DOT, np.where((digit >= 0) & (digit < n), FIRST + digit, ZERO), END],
    ).reshape(-1, WIDTH - 1)
    rest = [
        [FIRST, *([DOT, *range(FIRST + 1, FIRST + n)] if n > 1 else []), E, EXP_SIGN, *range(EXPONENT + 4 - width, EXPONENT + 4), END]
        for n in range(1, 18)
        for width in (2, 3)
    ] + [[FIRST, FIRST + 1, FIRST + 2, END]]
    rest = np.array([row + [0] * (WIDTH - 1 - len(row)) for row in rest])
    body = np.concatenate([fixed, rest])
    return np.concatenate([np.full((len(body), 1), SIGN), body], axis=1)


@functools.cache
def _tables():
    """Built on first use: g = floor(10^-k 2^-r) + 1 in [2^125, 2^126) for
    k in [K_MIN, K_MAX] as the 32-bit pieces of its 63-bit halves; the text
    of every 4-digit group as one little-endian uint32; and the patterns."""
    pieces = []
    for k in range(K_MIN, K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125
        g = (10**-k >> r if r >= 0 else 10**-k << -r) if k <= 0 else (1 << -r) // 10**k
        g += 1
        pieces.append([g >> 95, g >> 63 & (2**32 - 1), g >> 32 & (2**31 - 1), g & (2**32 - 1)])
    digit = np.arange(ord("0"), ord("9") + 1, dtype="<u4")
    groups = (digit[:, None, None, None] | digit[:, None, None] << 8 | digit[:, None] << 16 | digit << 24).ravel()
    return np.array(pieces, dtype=U), groups, _patterns()


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of a b, from the 32-bit halves of a and b."""
    low, cross1, cross2 = a0 * b0, a1 * b0, a0 * b1
    middle = (low >> U(32)) + (cross1 & M32) + (cross2 & M32)
    return a1 * b1 + (cross1 >> U(32)) + (cross2 >> U(32)) + (middle >> U(32))


def _shortest(bits: np.ndarray, pieces: np.ndarray):
    """Schubfach on float64 bits: for each finite nonzero value, the digits
    f and exponent k of the shortest decimal f 10^k that rounds to it (the
    closest such one, ties to an even f); f may carry trailing zeros.  What
    it gives for zeros and non-finite values, the caller replaces."""
    t = bits & U(2**52 - 1)
    biased = (bits >> U(52)) & U(0x7FF)
    c = np.where(biased > 0, t | U(2**52), t)
    q = np.maximum(biased.astype(np.int64), 1) - 1075
    irregular = (t == 0) & (biased > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(U)
    cb = c << U(2)
    # vbl, vb, vbr: g cp 2^-127 rounded to odd, for cp = (cbl, cb, cbr) 2^h.
    cp = np.stack([cb - U(2) + irregular.astype(U), cb, cb + U(2)]) << h
    g11, g10, g01, g00 = pieces.take(k - K_MIN, axis=0).T
    p1, p0 = cp >> U(32), cp & M32
    z = ((((g11 << U(32)) | g10) * cp) >> U(1)) + _mulhi(g01, g00, p1, p0)
    vbl, vb, vbr = (_mulhi(g11, g10, p1, p0) + (z >> U(63))) | (((z & M63) + M63) >> U(63))
    # The rounding interval is closed for an even c, open for an odd one.
    out = c & U(1)
    s = vb >> U(2)
    sp10 = s // U(10) * U(10)
    upin = vbl + out <= sp10 << U(2)
    wpin = (sp10 << U(2)) + U(40) + out <= vbr
    uin = vbl + out <= s << U(2)
    win = ((s + U(1)) << U(2)) + out <= vbr
    round_up = vb + (s & U(1)) > (s << U(2)) + U(2)
    f = s + np.where(uin != win, win, round_up)
    return np.where((s >= U(10)) & (upin != wpin), sp10 + U(10) * wpin, f), k


def _format(x: np.ndarray, src: np.ndarray) -> bytes:
    """The fields of the values x, each ended by its byte in column END of
    ``src``, a (len(x), ROW) array whose constant columns are set."""
    pieces, groups, patterns = _tables()
    bits = x.view(U)
    finite = (bits & U(0x7FF << 52)) != U(0x7FF << 52)
    zero = (bits << U(1)) == U(0)
    f, k = _shortest(bits, pieces)
    # f scaled to 17 digits: ndigits + k is the decimal point's position.
    power = 10 ** np.arange(18, dtype=U)
    ndigits = np.searchsorted(power, f, side="right")
    f = f * power[17 - ndigits]
    lead = f // U(10**16)
    high, low = np.divmod(f - lead * U(10**16), U(10**8))
    src[:, SIGN] = (bits >> U(63)).astype(np.uint8) * ord("-")
    src[:, FIRST] = np.where(zero, ord("0"), lead + U(ord("0")))
    words = src.view("<u4")
    halves = np.stack([high, low], axis=1).astype(np.uint32)
    words[:, 1:5] = groups[np.stack(np.divmod(halves, np.uint32(10**4)), axis=2).reshape(-1, 4)]
    # n: the digits that remain once the trailing zeros are dropped.
    n = np.where(zero, 1, 17 - np.argmax(src[:, FIRST + 16 : FIRST - 1 : -1] != ord("0"), axis=1))
    decpt = np.where(zero, 1, ndigits + k)
    exponent = np.abs(decpt - 1)
    words[:, EXPONENT // 4] = groups[exponent]
    src[:, EXP_SIGN] = np.where(decpt < 1, ord("-"), ord("+"))
    fixed = (decpt > -4) & (decpt <= 16)
    shape = np.where(fixed, (decpt + 3) * 17 + n - 1, SCIENTIFIC + (n - 1) * 2 + (exponent >= 100))
    for i in np.flatnonzero(~finite):
        src[i, SIGN : FIRST + 3] = np.frombuffer(repr(float(x[i])).rjust(4, "\0").encode(), dtype=np.uint8)
        shape[i] = LITERAL
    index = patterns.take(shape, axis=0)
    index += (np.arange(len(x)) * ROW)[:, None]
    return src.ravel().take(index).tobytes().translate(None, b"\0")


def format_rows(table: np.ndarray) -> str:
    """The CSV text of a (rows, columns) float64 block: each row's fields
    ``repr``'d and joined by commas, each row ended by a newline."""
    table = np.ascontiguousarray(table, dtype=float)
    rows, columns = table.shape
    step = max(1, CHUNK // columns)
    src = np.empty((min(rows, step), columns, ROW), dtype=np.uint8)
    src[..., [0, ZERO, DOT, E, END]] = [0, ord("0"), ord("."), ord("e"), ord(",")]
    src[:, -1, END] = ord("\n")
    src = src.reshape(-1, ROW)
    return b"".join(
        _format(table[lo : lo + step].ravel(), src[: columns * min(step, rows - lo)]) for lo in range(0, rows, step)
    ).decode("ascii")
