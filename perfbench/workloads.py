"""The three benchmark workloads.

Every workload runs the same stages in CLI order (extract, load, train,
evaluate, predict, analyze) so that each reports every end-to-end
metric; what differs is the geometry, which decides where the time goes.
Each stage gets its share of the run's seconds, and at least MIN_REPS
calls; the reported figure is the median over its calls.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("extract", "load", "train", "evaluate", "predict", "analyze")
MIN_REPS = 3
SETUP_REPS = 3
CLASSES = 10
SAMPLE_RATE = 48000
CHANNELS = 2  # stereo


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    per_class: int  # clips per class, train and test together
    test_per_class: int
    clip_seconds: float
    mel_bins: int
    model: str  # "subspectralnet" or "baseline"
    sub_size: int = 20
    hop_size: int = 10
    width_multiplier: int = 1
    epochs: int = 1  # per train_model call
    shares: tuple = (0.15, 0.05, 0.40, 0.15, 0.15, 0.10)  # of the measured time, in STAGES order

    @property
    def frames(self) -> int:
        # the frontend keeps n_samples // hop frames: 50 per second at a 20 ms hop
        return int(round(self.clip_seconds / 0.02))

    @property
    def train_clips(self) -> int:
        return CLASSES * (self.per_class - self.test_per_class)

    @property
    def test_clips(self) -> int:
        return CLASSES * self.test_per_class

    def train_config(self, seed: int):
        from subspectral.training import TrainConfig

        return TrainConfig(
            epochs=self.epochs,
            lr=1e-3,
            batch_size=16,
            seed=seed,
            repeats=1,
            model=self.model,
            sub_size=self.sub_size,
            hop_size=self.hop_size,
            width_multiplier=self.width_multiplier,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # acceptance scale: every stage runs at the size the acceptance
        # suite trains on (30 train + 30 test clips); M = 3 keeps the GEMMs
        # small, so per-call Python overhead and the per-epoch evaluations
        # of train and test sets weigh most
        Workload(
            name="desk-40",
            why="1 s clips, 40 mel, band split 40/20/10 (M = 3): every stage at acceptance scale; small GEMMs and per-epoch evals dominate",
            per_class=6,
            test_per_class=3,
            clip_seconds=1.0,
            mel_bins=40,
            model="subspectralnet",
            epochs=2,
        ),
        # 18 band trunks per step: the band loop, conv backward and Adam's
        # per-tensor loop over 224 tensors take the time; the frontend is
        # negligible
        Workload(
            name="bands-200",
            why="1 s clips, 200 mel, band split 200/30/10 (M = 18): the band loop, conv backward and Adam over 2.1M params dominate",
            per_class=2,
            test_per_class=1,
            clip_seconds=1.0,
            mel_bins=200,
            model="subspectralnet",
            sub_size=30,
            hop_size=10,
            shares=(0.10, 0.05, 0.45, 0.15, 0.20, 0.05),
        ),
        # the paper's 10 s clip length (T = 500): frontend, storage and
        # large-T eval forwards with big im2col buffers; no band loop, so
        # band-engine changes should not move it
        Workload(
            name="corpus-10s",
            why="10 s clips (T = 500), 40 mel, doubled-width baseline CNN: frontend, storage and large-T forwards dominate; no band loop",
            per_class=2,
            test_per_class=1,
            clip_seconds=10.0,
            mel_bins=40,
            model="baseline",
            width_multiplier=2,
            shares=(0.20, 0.05, 0.35, 0.15, 0.20, 0.05),
        ),
    )
}
