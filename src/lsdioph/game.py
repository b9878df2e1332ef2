"""The Schmidt (alpha, beta)-game engine on matrix space.

A formal ball is a pair (center, radius) with a finite-support matrix center
and an exact rational radius; the geometric ball it denotes is
``{x : ||x - c|| <= rho}``.  The map from formal balls to sets is not
injective: only the radius's k-power floor and the center coefficients above
that exponent matter, which is what :func:`canonicalize` extracts.

Play alternates: White shrinks by alpha, Black by beta, both subject to the
formal containment rule ``rho_in + ||c_in - c_out|| <= rho_out``.  An illegal
proposal forfeits for the proposing player and is recorded in the
transcript; the engine itself never guesses moves.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InsufficientDepth
from .field import FieldSpec, Magnitude, floor_log, floor_log_ratio
from .series import (
    LaurentSeries,
    SeriesMatrix,
    format_series,
    parse_field,
    parse_series,
)

RANDOM_BLACK_DEPTH = 2


@dataclass(frozen=True)
class FormalBall:
    center: SeriesMatrix
    radius: Fraction

    def __post_init__(self):
        r = self.radius
        if not isinstance(r, Fraction):
            if r <= 0:
                raise ValueError("radius must be positive")
            object.__setattr__(self, "radius", Fraction(r))
        elif r.numerator <= 0:  # an int comparison, cheaper than Fraction's
            raise ValueError("radius must be positive")
        if not self.center.is_exact:
            raise ValueError("center entries must be exact finite-support series")

    @property
    def spec(self) -> FieldSpec:
        return self.center.spec

    def effective_exponent(self) -> int:
        """Exponent of the largest k-power <= radius (the real resolution),
        computed once per ball."""
        e = self.__dict__.get("_exponent")
        if e is None:
            # the instance dict, because the dataclass is frozen
            e = self.__dict__["_exponent"] = floor_log(self.radius, self.spec.k)
        return e


@dataclass(frozen=True)
class GameParams:
    alpha: Fraction
    beta: Fraction
    spec: FieldSpec

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise ValueError("alpha and beta must lie in (0, 1)")

    @property
    def gamma(self) -> Fraction:
        """k^-1 + alpha*beta - (k^-1 + 1)*alpha; positive iff White's moves
        can outrun Black's recentering along a fixed direction."""
        kinv = Fraction(1, self.spec.k)
        return kinv + self.alpha * self.beta - (kinv + 1) * self.alpha


def formal_contains(inner: FormalBall, outer: FormalBall) -> bool:
    """Exact test of rho_in + ||c_in - c_out|| <= rho_out.  Centers have
    finite support and store no zero coefficient, so ||c_in - c_out|| is
    k^gap, gap the largest exponent at which their coefficients differ."""
    gap = None
    if inner.center is not outer.center:  # a concentric move shares its centre
        if inner.center.shape != outer.center.shape:
            raise ValueError("dimension mismatch")
        if inner.spec != outer.spec:
            raise ValueError("mixed field specs")
        pairs = zip(
            (x for row in inner.center.entries for x in row),
            (y for row in outer.center.entries for y in row),
        )
        # (e, c) pairs in one centre only; the largest pair has the largest e
        diffs = [x.coeffs.items() ^ y.coeffs.items() for x, y in pairs if x is not y]
        gap = max((max(diff)[0] for diff in diffs if diff), default=None)
    # rho_out - rho_in = slack / scale, compared with k^gap in integers;
    # Fraction arithmetic here measurably slows game-certify (CHANGES.md)
    a, b = inner.radius.numerator, inner.radius.denominator
    c, d = outer.radius.numerator, outer.radius.denominator
    slack, scale = c * b - a * d, b * d
    if gap is None:
        return slack >= 0
    k = inner.spec.k
    return slack >= k**gap * scale if gap >= 0 else slack * k**-gap >= scale


def ball_contains_point(ball: FormalBall, point: SeriesMatrix) -> bool:
    """Membership of an exact matrix in the geometric ball."""
    return (point - ball.center).height().as_fraction() <= ball.radius


def canonicalize(ball: FormalBall) -> FormalBall:
    """Normal form with the same geometric ball: radius becomes its k-power
    floor, the center drops all coefficients at or below that exponent."""
    e = ball.effective_exponent()
    radius = Magnitude.power(ball.spec.k, e).as_fraction()
    center = ball.center.map(lambda x: x.truncate_below(e + 1))
    return FormalBall(center, radius)


def validate_move(prev: FormalBall, proposal: FormalBall, ratio: Fraction) -> bool:
    # the radius law rho_new = ratio * rho_prev, cross-multiplied in integers
    a, b = ratio.numerator, ratio.denominator
    if not 0 < a < b:
        raise ValueError("ratio must lie in (0, 1)")
    new, old = proposal.radius, prev.radius
    if new.numerator * b * old.denominator != a * old.numerator * new.denominator:
        return False
    return formal_contains(proposal, prev)


@dataclass(frozen=True)
class IllegalMove:
    player: str
    index: int


@dataclass
class GameTranscript:
    """B_1, W_1, B_2, W_2, ... (index parity: even = Black, odd = White)."""

    params: GameParams
    balls: list = field(default_factory=list)
    forfeit: IllegalMove | None = None

    @property
    def shape(self):
        return self.balls[0].center.shape

    def last(self) -> FormalBall:
        return self.balls[-1]

    def player_at(self, index: int) -> str:
        return "black" if index % 2 == 0 else "white"

    def black_balls(self):
        return self.balls[0::2]

    def full_rounds(self) -> int:
        """Completed (W_i, B_i+1) rounds."""
        return (len(self.balls) - 1) // 2

    def to_jsonl(self) -> str:
        p = self.params
        lines = [
            json.dumps(
                {
                    "type": "header",
                    "field": _field_flag(p.spec),
                    "alpha": str(p.alpha),
                    "beta": str(p.beta),
                    "shape": list(self.shape),
                },
                sort_keys=True,
            )
        ]
        # a move that keeps its centre shares the centre object, so each
        # centre is encoded once and each distinct term formatted once; a
        # record is then the text json.dumps(..., sort_keys=True) gives, as
        # the player and a str(Fraction) need no escaping
        terms, center, head = {}, None, None
        for i, b in enumerate(self.balls):
            if b.center is not center:
                center = b.center
                text = [[format_series(x, terms) for x in row] for row in center.entries]
                head = '{"center": ' + json.dumps(text) + ', "player": "'
            lines.append(f'{head}{self.player_at(i)}", "radius": "{b.radius}"}}')
        if self.forfeit is not None:
            lines.append(
                json.dumps(
                    {
                        "type": "forfeit",
                        "player": self.forfeit.player,
                        "index": self.forfeit.index,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "GameTranscript":
        """Replay a transcript, checking that every move it reads is legal.
        Each record repeats its full centre: a centre equal to the previous
        record's is read once, and each distinct term text is parsed once."""
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("replay: empty transcript")
        header = lines[0]
        _require_keys(header, ("field", "alpha", "beta"), "header record")
        spec = parse_field(header["field"])
        params = GameParams(
            Fraction(header["alpha"]), Fraction(header["beta"]), spec
        )
        t = cls(params)
        terms, text, center = {}, None, None
        for number, rec in enumerate(lines[1:], 2):
            where = f"record {number}"
            if isinstance(rec, dict) and rec.get("type") == "forfeit":
                _require_keys(rec, ("player", "index"), where)
                t.forfeit = IllegalMove(rec["player"], rec["index"])
                continue
            _require_keys(rec, ("center", "radius"), where)
            if rec["center"] != text:
                text = rec["center"]
                center = SeriesMatrix(
                    spec, [[parse_series(s, spec, terms) for s in row] for row in text]
                )
            ball = FormalBall(center, _read_radius(rec["radius"]))
            if t.balls:
                ratio = params.alpha if t.player_at(len(t.balls)) == "white" else params.beta
                if not validate_move(t.balls[-1], ball, ratio):
                    raise ValueError(f"replay: illegal move at index {len(t.balls)}")
            t.balls.append(ball)
        return t


def _read_radius(text):
    """``Fraction(text)``; the text ``to_jsonl`` writes, ASCII digits with
    an optional ``/`` and digits, is read as two ints."""
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den) if slash else 1)
    return Fraction(text)


def _require_keys(rec, keys, where: str):
    if not isinstance(rec, dict):
        raise ValueError(f"replay: {where} is not a JSON object")
    missing = [key for key in keys if key not in rec]
    if missing:
        raise ValueError(f"replay: {where} lacks {', '.join(missing)}")


def _field_flag(spec: FieldSpec) -> str:
    if spec.r == 1:
        return str(spec.p)
    mod = "+".join(
        _mod_term(c, i)
        for i, c in reversed(list(enumerate(spec.modulus)))
        if c
    )
    return f"{spec.p}^{spec.r}:{mod}"


def _mod_term(c: int, i: int) -> str:
    if i == 0:
        return str(c)
    xs = "X" if i == 1 else f"X^{i}"
    return xs if c == 1 else f"{c}*{xs}"


@dataclass(frozen=True)
class StopRule:
    """Stop once either bound is met (checked after each of Black's moves)."""

    max_rounds: int | None = None
    radius_below: Fraction | None = None

    def met(self, transcript: GameTranscript) -> bool:
        if self.max_rounds is not None and transcript.full_rounds() >= self.max_rounds:
            return True
        if (
            self.radius_below is not None
            and transcript.last().radius < self.radius_below
        ):
            return True
        return False


def play(white, black, initial: FormalBall, params: GameParams, stop: StopRule) -> GameTranscript:
    """Run the alternating game; illegal proposals forfeit and end play.

    Strategies are objects with ``propose(transcript) -> FormalBall``; they
    see the full transcript (perfect information) and must be instantiated
    per game if they keep state.
    """
    t = GameTranscript(params, [initial])
    while not stop.met(t):
        w = white.propose(t)
        if not validate_move(t.last(), w, params.alpha):
            t.forfeit = IllegalMove("white", len(t.balls))
            return t
        t.balls.append(w)
        b = black.propose(t)
        if not validate_move(t.last(), b, params.beta):
            t.forfeit = IllegalMove("black", len(t.balls))
            return t
        t.balls.append(b)
    return t


def limit_point(t: GameTranscript, precision: int) -> SeriesMatrix:
    """The unique point of the intersection, truncated at exponent
    -precision; every returned coefficient is final."""
    last = canonicalize(t.last())
    e = last.effective_exponent()
    if e >= -precision:
        # one full round shrinks the radius by alpha*beta: bisect for the
        # fewest rounds that bring it below k^-precision
        shrink, bound = t.params.alpha * t.params.beta, Fraction(t.params.spec.k) ** -precision

        def below(rounds):
            return last.radius * shrink**rounds < bound

        hi = 1
        while not below(hi):
            hi *= 2
        extra = bisect.bisect_left(range(hi + 1), True, key=below)
        raise InsufficientDepth(
            f"effective radius k^{e} is too coarse for precision {precision}",
            extra,
        )
    return last.center.map(lambda x: x.truncate_below(-precision))


# ---------------------------------------------------------------------------
# Basic strategies
# ---------------------------------------------------------------------------


def legal_center_shift_exponent(prev: FormalBall, ratio: Fraction) -> int:
    """Largest exponent g with k^g <= (1 - ratio) * radius: shifts of that
    norm keep the shrunken ball inside ``prev``."""
    a, b = ratio.numerator, ratio.denominator
    r = prev.radius
    return floor_log_ratio((b - a) * r.numerator, b * r.denominator, prev.spec.k)


class RandomBlack:
    """Recenter by random coefficients on the legal k-grid, at the top
    ``RANDOM_BLACK_DEPTH`` exponents of the legal shift."""

    name = "black-random"

    def __init__(self, seed: int):
        import random

        self.rng = random.Random(seed)

    def propose(self, t: GameTranscript) -> FormalBall:
        prev = t.last()
        beta = t.params.beta
        spec = prev.spec
        g = legal_center_shift_exponent(prev, beta)
        rows = []
        for row in prev.center.entries:
            out = []
            for x in row:
                delta = {
                    g - i: self.rng.randrange(spec.k) for i in range(RANDOM_BLACK_DEPTH)
                }
                out.append(x + LaurentSeries(spec, delta))
            rows.append(out)
        # legal by construction: the shift has norm <= k^g <= (1 - beta) * radius
        return FormalBall(SeriesMatrix(spec, rows), beta * prev.radius)


class GreedyBlack:
    """Steer the limit toward a polynomial (a trivially well-approximable
    point) by zeroing the deepest coefficients it may legally touch."""

    name = "black-greedy"

    def propose(self, t: GameTranscript) -> FormalBall:
        prev = t.last()
        beta = t.params.beta
        g = legal_center_shift_exponent(prev, beta)
        center = prev.center.map(lambda x: x.truncate_below(g + 1))
        # legal by construction, as in RandomBlack: only digits at or below g change
        return FormalBall(center, beta * prev.radius)


class StdinBlack:
    """Debug aid: reads one center per move (matrix rows separated by ';',
    entries by ',') in the series grammar from a stream."""

    name = "black-stdin"

    def __init__(self, stream=None, echo=None):
        import sys

        self.stream = stream if stream is not None else sys.stdin
        self.echo = echo if echo is not None else sys.stderr

    def propose(self, t: GameTranscript) -> FormalBall:
        from .series import parse_matrix

        prev = t.last()
        beta = t.params.beta
        print(
            f"move {len(t.balls)}: radius {beta * prev.radius}; enter center",
            file=self.echo,
        )
        line = self.stream.readline()
        if not line.strip():
            return FormalBall(prev.center, beta * prev.radius)
        center = parse_matrix(line.strip(), prev.spec)
        return FormalBall(center, beta * prev.radius)


def unit_ball(spec: FieldSpec, m: int, n: int, radius: Fraction = Fraction(1)) -> FormalBall:
    return FormalBall(SeriesMatrix.zero(spec, m, n), radius)
