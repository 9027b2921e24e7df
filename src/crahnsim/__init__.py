"""Deterministic discrete-event simulator of a CRAHN-based disaster-response
system: MLP disaster detection over a clustered sensor field, learned
spectrum-hole selection, AODV-backed service discovery (gateway discovery is
discovery of a `gateway` service), and XML situation interchange, with a
seeded experiment harness."""

from .kernel import Kernel, PastTimeError
from .mlp import DISASTER_HAPPENED, DISASTER_NOT_HAPPENED, Mlp, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "Kernel", "PastTimeError",
    "Mlp", "TrainConfig", "train",
    "DISASTER_HAPPENED", "DISASTER_NOT_HAPPENED",
]
