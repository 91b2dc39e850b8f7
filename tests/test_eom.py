"""Visibility of the EOM modulation tone against the shot-noise and squeezed floors."""
from squeezelab.tracesim import ToneVisibility, classify_tone


class TestClassifyTone:
    def test_hidden(self):
        assert classify_tone(-5.0, -3.2) is ToneVisibility.HIDDEN

    def test_revealed(self):
        assert classify_tone(-1.0, -3.2) is ToneVisibility.REVEALED_BY_SQUEEZING

    def test_classical(self):
        assert classify_tone(1.0, -3.2) is ToneVisibility.VISIBLE_CLASSICALLY
