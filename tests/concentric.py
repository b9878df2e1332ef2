"""The concentric strategy, a neutral player for the game tests: it shrinks
the last ball in place, which is always legal, for either player."""

from lsdioph.game import FormalBall, GameTranscript


class ConcentricStrategy:
    """Shrink in place; always legal, for either player."""

    name = "concentric"

    def __init__(self, ratio_key: str):
        self.ratio_key = ratio_key  # "alpha" or "beta"

    def propose(self, t: GameTranscript) -> FormalBall:
        prev = t.last()
        ratio = getattr(t.params, self.ratio_key)
        return FormalBall(prev.center, ratio * prev.radius)
