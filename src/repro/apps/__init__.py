"""Case-study models: the paper's didactic example (Fig. 3), the crane
control system (§5.1) and the 12-thread synthetic example (§5.2)."""

from . import crane, didactic, mjpeg, synthetic

#: Demo name -> model factory, for ``repro demo`` and ``demo`` jobs.
DEMOS = {
    "didactic": didactic.build_model,
    "crane": crane.build_model,
    "synthetic": synthetic.build_model,
    "mjpeg": mjpeg.build_model,
}

__all__ = ["DEMOS", "crane", "didactic", "mjpeg", "synthetic"]
