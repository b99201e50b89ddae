"""Machine and sampling configuration.

This module encodes the paper's Table I machine configurations (Part A: base
configuration, Part B: sensitivity-analysis configuration) and the sampling
constants used throughout the evaluation.

Scaling convention
------------------
The paper works in units of millions (M) of instructions on multi-billion
instruction SPEC2000 runs.  The reproduction scales instruction counts by
``SCALE = 250``: one paper "M instruction" corresponds to 250 instructions
here.  Hence the paper's 10M fine-grained SimPoint interval becomes
``FINE_INTERVAL_SIZE = 2_500`` instructions, and the 300M re-sampling
threshold becomes ``75_000``.  All quantities the paper evaluates are ratios
of instruction counts, so they are invariant under this scaling; what must
be preserved (and is, by suite construction) is the hierarchy of ratios:
program >> coarse interval > re-sample threshold >> fine interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

#: Instructions per paper "M instructions" (paper scale is 1_000_000).
SCALE = 250

#: Fine-grained interval size: the paper's recommended 10M SimPoint interval.
FINE_INTERVAL_SIZE = 10 * SCALE

#: Maximum number of clusters for fine-grained SimPoint (SimPoint default).
FINE_KMAX = 30

#: Maximum number of clusters for coarse-grained COASTS phases (paper: 3).
COARSE_KMAX = 3

#: Coarse points larger than this are re-sampled at the second level.
#: The paper derives it as 10M * Kmax = 300M instructions.
RESAMPLE_THRESHOLD = FINE_INTERVAL_SIZE * FINE_KMAX

#: Cyclic program structures covering less than this fraction of dynamic
#: instructions are discarded during COASTS boundary collection (paper: 1%).
MIN_STRUCTURE_COVERAGE = 0.01

#: Dimensionality of the random projection applied to raw BBVs (paper: 15).
PROJECTION_DIM = 15

#: Intervals of size >= 1000M (scaled) are "coarse-grained" per Section I.
COARSE_GRAIN_BOUNDARY = 1000 * SCALE


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    Sizes are in bytes.  ``assoc = 1`` is a direct-mapped cache.
    """

    name: str
    size: int
    assoc: int
    line_size: int
    latency: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.line_size <= 0:
            raise ConfigError(f"cache {self.name}: non-positive geometry")
        if self.latency < 0:
            raise ConfigError(f"cache {self.name}: negative latency")
        if self.size % (self.assoc * self.line_size) != 0:
            raise ConfigError(
                f"cache {self.name}: size {self.size} not divisible by "
                f"assoc*line_size = {self.assoc * self.line_size}"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size // (self.assoc * self.line_size)

    @property
    def n_lines(self) -> int:
        """Total number of cache lines."""
        return self.size // self.line_size


@dataclass(frozen=True)
class BranchPredictorConfig:
    """A combined (bimodal + gshare with meta chooser) branch predictor."""

    kind: str = "combined"
    bht_entries: int = 8192
    history_bits: int = 8
    mispredict_penalty: int = 14

    def __post_init__(self) -> None:
        if self.kind not in ("bimodal", "gshare", "combined", "taken"):
            raise ConfigError(f"unknown predictor kind {self.kind!r}")
        if self.bht_entries <= 0 or self.bht_entries & (self.bht_entries - 1):
            raise ConfigError("bht_entries must be a positive power of two")
        if not 0 <= self.history_bits <= 16:
            raise ConfigError("history_bits must be in [0, 16]")
        if self.mispredict_penalty < 0:
            raise ConfigError("mispredict_penalty must be non-negative")


@dataclass(frozen=True)
class FunctionalUnits:
    """Counts of pipelined functional units (Table I)."""

    int_alu: int = 8
    load_store: int = 4
    fp_add: int = 2
    int_mult_div: int = 2
    fp_mult_div: int = 2

    def __post_init__(self) -> None:
        for fu_name in ("int_alu", "load_store", "fp_add", "int_mult_div", "fp_mult_div"):
            if getattr(self, fu_name) <= 0:
                raise ConfigError(f"functional unit count {fu_name} must be positive")


@dataclass(frozen=True)
class MachineConfig:
    """A full machine configuration, mirroring Table I of the paper."""

    name: str
    issue_width: int = 8
    rob_entries: int = 128
    lsq_entries: int = 64
    int_registers: int = 32
    fp_registers: int = 32
    functional_units: FunctionalUnits = field(default_factory=FunctionalUnits)
    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig("il1", 8 * 1024, 2, 32, 1)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig("dl1", 16 * 1024, 4, 32, 2)
    )
    l2cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("ul2", 1024 * 1024, 4, 32, 20)
    )
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    mem_latency_first: int = 150
    mem_latency_next: int = 10

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ConfigError("issue_width must be positive")
        if self.rob_entries <= 0 or self.lsq_entries <= 0:
            raise ConfigError("ROB/LSQ entries must be positive")
        if self.mem_latency_first < self.l2cache.latency:
            raise ConfigError("memory latency must exceed L2 latency")

    def with_name(self, name: str) -> "MachineConfig":
        """Return a copy of this config under a different name."""
        return replace(self, name=name)


def make_config_a() -> MachineConfig:
    """Table I Part A: the base configuration used against SimPoint."""
    return MachineConfig(name="config_a")


def make_config_b() -> MachineConfig:
    """Table I Part B: the sensitivity-analysis configuration.

    Larger caches (32K direct-mapped I$, 128K 2-way D$, 4M 8-way L2), longer
    memory latency, and a different functional-unit mix.
    """
    return MachineConfig(
        name="config_b",
        functional_units=FunctionalUnits(
            int_alu=6, load_store=2, fp_add=6, int_mult_div=4, fp_mult_div=4
        ),
        icache=CacheConfig("il1", 32 * 1024, 1, 32, 1),
        dcache=CacheConfig("dl1", 128 * 1024, 2, 32, 1),
        l2cache=CacheConfig("ul2", 4 * 1024 * 1024, 8, 32, 30),
        mem_latency_first=200,
        mem_latency_next=15,
    )


#: Table I Part A, ready to use.
CONFIG_A = make_config_a()

#: Table I Part B, ready to use.
CONFIG_B = make_config_b()


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of the sampling pipeline (paper defaults).

    The defaults replicate the paper's setup: 10M (scaled) fine intervals,
    ``Kmax`` of 30/3 for fine/coarse clustering, 15-dim random projection,
    1% structure-coverage floor and the 300M re-sampling threshold.
    """

    fine_interval_size: int = FINE_INTERVAL_SIZE
    fine_kmax: int = FINE_KMAX
    coarse_kmax: int = COARSE_KMAX
    resample_threshold: int = RESAMPLE_THRESHOLD
    min_structure_coverage: float = MIN_STRUCTURE_COVERAGE
    projection_dim: int = PROJECTION_DIM
    signature_segments: int = 4
    kmeans_seeds: int = 5
    bic_threshold: float = 0.9
    random_seed: int = 42
    #: Two-phase stratified sampling: total detailed-interval budget
    #: spread over the BBV-cluster strata (Neyman-style allocation).
    stratified_budget: int = 30
    #: Ranked-set sampling: set size m (ranks per cycle, also the number
    #: of rank strata) and the number of repeated subsampling cycles r.
    ranked_set_size: int = 5
    ranked_set_cycles: int = 3

    def __post_init__(self) -> None:
        if self.fine_interval_size <= 0:
            raise ConfigError("fine_interval_size must be positive")
        if self.fine_kmax <= 0 or self.coarse_kmax <= 0:
            raise ConfigError("Kmax values must be positive")
        if self.resample_threshold < self.fine_interval_size:
            raise ConfigError("resample_threshold must be >= fine interval size")
        if not 0.0 <= self.min_structure_coverage < 1.0:
            raise ConfigError("min_structure_coverage must be in [0, 1)")
        if self.projection_dim <= 0:
            raise ConfigError("projection_dim must be positive")
        if self.signature_segments <= 0:
            raise ConfigError("signature_segments must be positive")
        if not 0.0 < self.bic_threshold <= 1.0:
            raise ConfigError("bic_threshold must be in (0, 1]")
        if self.kmeans_seeds <= 0:
            raise ConfigError("kmeans_seeds must be positive")
        if self.stratified_budget <= 0:
            raise ConfigError("stratified_budget must be positive")
        if self.ranked_set_size <= 0:
            raise ConfigError("ranked_set_size must be positive")
        if self.ranked_set_cycles <= 0:
            raise ConfigError("ranked_set_cycles must be positive")


#: Default sampling configuration used by the harness.
DEFAULT_SAMPLING = SamplingConfig()


@dataclass(frozen=True)
class CostModel:
    """Relative per-instruction costs of the simulation modes.

    ``detail_cost / functional_cost = 33`` is derived from the paper's own
    numbers: plugging Table III's detail/functional instruction fractions
    into ``T = d*R + f`` reproduces both the 6.78x COASTS and the 14.04x
    multi-level speedups at ``R ~= 33`` (see DESIGN.md section 2).
    """

    detail_cost: float = 33.0
    functional_cost: float = 1.0
    profile_cost: float = 0.2

    def __post_init__(self) -> None:
        if min(self.detail_cost, self.functional_cost) <= 0:
            raise ConfigError("simulation costs must be positive")
        if self.profile_cost < 0:
            raise ConfigError("profile_cost must be non-negative")
        if self.detail_cost < self.functional_cost:
            raise ConfigError("detailed simulation cannot be cheaper than functional")


#: Default cost model calibrated against the paper (see DESIGN.md).
DEFAULT_COST_MODEL = CostModel()
