"""Workload configurations of Tables I and II.

Table II defines the three state-of-the-art DLRM configurations (RM1, RM2,
RM3) used throughout the evaluation; Table I defines the microbenchmark sweep
(MLP size, locality, number of tables, forced shard count) built on top of
RM1.  Both are encoded here as frozen dataclasses so every experiment and
test consumes exactly the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.data.distributions import AccessDistribution, ZipfDistribution
from repro.data.query_gen import QueryGenerator, TableWorkload

__all__ = [
    "MLPConfig",
    "EmbeddingConfig",
    "DLRMConfig",
    "rm1",
    "rm2",
    "rm3",
    "workload_presets",
    "microbenchmark",
    "MICROBENCHMARK_MLP_PRESETS",
    "LOCALITY_PRESETS",
    "MICROBENCHMARK_TABLE_COUNTS",
    "MICROBENCHMARK_SHARD_COUNTS",
]

#: Number of continuous (dense) input features.  The paper does not state the
#: dense-feature width; we use the Criteo/DLRM convention of 13.
DEFAULT_NUM_DENSE_FEATURES = 13

#: Batch size (items ranked per query), Section V-C.
DEFAULT_BATCH_SIZE = 32

#: Bytes per embedding-table element (fp32).
DEFAULT_DTYPE_BYTES = 4


@dataclass(frozen=True)
class MLPConfig:
    """A multi-layer perceptron described by its hidden/output layer widths.

    The paper writes MLPs as e.g. ``256-128-32``: the widths of successive
    layers, the last being the output width.  The input width is supplied
    separately (dense-feature count for the bottom MLP, interaction output
    width for the top MLP).
    """

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if not sizes:
            raise ValueError("an MLP needs at least one layer")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")

    @property
    def output_dim(self) -> int:
        """Width of the final layer."""
        return self.layer_sizes[-1]

    def dims_with_input(self, input_dim: int) -> tuple[int, ...]:
        """Full layer-width sequence including the input width."""
        if input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {input_dim}")
        return (int(input_dim),) + self.layer_sizes

    def num_parameters(self, input_dim: int) -> int:
        """Weights plus biases for the given input width."""
        dims = self.dims_with_input(input_dim)
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))

    def flops_per_sample(self, input_dim: int) -> int:
        """Multiply-accumulate FLOPs (2 per MAC) for a single input sample."""
        dims = self.dims_with_input(input_dim)
        return sum(2 * dims[i] * dims[i + 1] for i in range(len(dims) - 1))

    def __str__(self) -> str:
        return "-".join(str(s) for s in self.layer_sizes)


@dataclass(frozen=True)
class EmbeddingConfig:
    """Sparse-feature (embedding-layer) configuration of a DLRM model."""

    num_tables: int
    rows_per_table: int
    embedding_dim: int
    pooling: int
    locality: float
    dtype_bytes: int = DEFAULT_DTYPE_BYTES

    def __post_init__(self) -> None:
        if self.num_tables <= 0:
            raise ValueError(f"num_tables must be positive, got {self.num_tables}")
        if self.rows_per_table <= 0:
            raise ValueError(f"rows_per_table must be positive, got {self.rows_per_table}")
        if self.embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if self.pooling <= 0:
            raise ValueError(f"pooling must be positive, got {self.pooling}")
        if not 0.0 < self.locality <= 1.0:
            raise ValueError(f"locality must be in (0, 1], got {self.locality}")
        if self.dtype_bytes <= 0:
            raise ValueError(f"dtype_bytes must be positive, got {self.dtype_bytes}")

    @property
    def bytes_per_table(self) -> int:
        """Size of one embedding table in bytes."""
        return self.rows_per_table * self.embedding_dim * self.dtype_bytes

    @property
    def total_bytes(self) -> int:
        """Aggregate embedding memory footprint in bytes."""
        return self.num_tables * self.bytes_per_table

    @property
    def total_gb(self) -> float:
        """Aggregate embedding memory footprint in GB."""
        return self.total_bytes / 1e9

    def access_distribution(self) -> AccessDistribution:
        """Hot-sorted access distribution matching this config's locality."""
        return ZipfDistribution.from_locality(self.rows_per_table, self.locality)


@dataclass(frozen=True)
class DLRMConfig:
    """A complete DLRM workload configuration (Table II row or microbenchmark)."""

    name: str
    bottom_mlp: MLPConfig
    top_mlp: MLPConfig
    embedding: EmbeddingConfig
    num_dense_features: int = DEFAULT_NUM_DENSE_FEATURES
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.num_dense_features <= 0:
            raise ValueError("num_dense_features must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.bottom_mlp.output_dim != self.embedding.embedding_dim:
            raise ValueError(
                "the bottom MLP must project dense features to the embedding "
                f"dimension ({self.bottom_mlp.output_dim} != {self.embedding.embedding_dim})"
            )

    # ------------------------------------------------------------------
    # Derived structural quantities
    # ------------------------------------------------------------------
    @property
    def num_feature_vectors(self) -> int:
        """Vectors entering feature interaction: one per table plus the dense one."""
        return self.embedding.num_tables + 1

    @property
    def num_interaction_pairs(self) -> int:
        """Distinct pairwise dot products computed by the interaction stage."""
        n = self.num_feature_vectors
        return n * (n - 1) // 2

    @property
    def top_mlp_input_dim(self) -> int:
        """Width of the concatenated (dense ++ interactions) top-MLP input."""
        return self.embedding.embedding_dim + self.num_interaction_pairs

    def with_name(self, name: str) -> "DLRMConfig":
        """Copy of this config under a different name."""
        return replace(self, name=name)

    def scaled_tables(self, num_tables: int) -> "DLRMConfig":
        """Copy with a different number of identically-sized embedding tables."""
        return replace(self, embedding=replace(self.embedding, num_tables=num_tables))

    def with_locality(self, locality: float) -> "DLRMConfig":
        """Copy with a different embedding access locality ``P``."""
        return replace(self, embedding=replace(self.embedding, locality=locality))

    def with_mlp(self, bottom: MLPConfig, top: MLPConfig) -> "DLRMConfig":
        """Copy with different bottom/top MLPs."""
        return replace(self, bottom_mlp=bottom, top_mlp=top)

    def query_generator(self, seed: int = 0, rows_override: int | None = None) -> QueryGenerator:
        """Query generator matching this workload.

        ``rows_override`` shrinks the tables (used by functional examples and
        tests that materialise real numpy embedding tables).
        """
        rows = self.embedding.rows_per_table if rows_override is None else int(rows_override)
        distribution = ZipfDistribution.from_locality(rows, self.embedding.locality)
        tables = [
            TableWorkload(
                table_id=table_id,
                distribution=distribution,
                pooling=self.embedding.pooling,
            )
            for table_id in range(self.embedding.num_tables)
        ]
        return QueryGenerator(
            tables,
            batch_size=self.batch_size,
            num_dense_features=self.num_dense_features,
            seed=seed,
        )


# ----------------------------------------------------------------------
# Table II: state-of-the-art RecSys workloads
# ----------------------------------------------------------------------
def rm1() -> DLRMConfig:
    """RM1 of Table II: 10 tables, pooling 128, bottom 256-128-32, top 256-64-1."""
    return DLRMConfig(
        name="RM1",
        bottom_mlp=MLPConfig((256, 128, 32)),
        top_mlp=MLPConfig((256, 64, 1)),
        embedding=EmbeddingConfig(
            num_tables=10,
            rows_per_table=20_000_000,
            embedding_dim=32,
            pooling=128,
            locality=0.90,
        ),
    )


def rm2() -> DLRMConfig:
    """RM2 of Table II: 32 tables, pooling 128, bottom 256-128-32, top 512-128-1."""
    return DLRMConfig(
        name="RM2",
        bottom_mlp=MLPConfig((256, 128, 32)),
        top_mlp=MLPConfig((512, 128, 1)),
        embedding=EmbeddingConfig(
            num_tables=32,
            rows_per_table=20_000_000,
            embedding_dim=32,
            pooling=128,
            locality=0.90,
        ),
    )


def rm3() -> DLRMConfig:
    """RM3 of Table II: 10 tables, pooling 32, bottom 2560-512-32, top 512-128-1."""
    return DLRMConfig(
        name="RM3",
        bottom_mlp=MLPConfig((2560, 512, 32)),
        top_mlp=MLPConfig((512, 128, 1)),
        embedding=EmbeddingConfig(
            num_tables=10,
            rows_per_table=20_000_000,
            embedding_dim=32,
            pooling=32,
            locality=0.90,
        ),
    )


def workload_presets() -> dict[str, DLRMConfig]:
    """The Table II workloads keyed by name."""
    return {config.name: config for config in (rm1(), rm2(), rm3())}


# ----------------------------------------------------------------------
# Table I: microbenchmark sweep (built on RM1)
# ----------------------------------------------------------------------
MICROBENCHMARK_MLP_PRESETS: dict[str, tuple[MLPConfig, MLPConfig]] = {
    "light": (MLPConfig((64, 32, 32)), MLPConfig((64, 32, 1))),
    "medium": (MLPConfig((256, 128, 32)), MLPConfig((256, 64, 1))),
    "heavy": (MLPConfig((512, 256, 32)), MLPConfig((512, 64, 1))),
}

LOCALITY_PRESETS: dict[str, float] = {
    "low": 0.10,
    "medium": 0.50,
    "high": 0.90,
}

MICROBENCHMARK_TABLE_COUNTS: tuple[int, ...] = (1, 4, 10, 16)

MICROBENCHMARK_SHARD_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)


def microbenchmark(
    mlp_size: str = "medium",
    locality: str = "high",
    num_tables: int = 10,
) -> DLRMConfig:
    """A Table I microbenchmark configuration.

    Parameters mirror Table I: ``mlp_size`` in {light, medium, heavy},
    ``locality`` in {low, medium, high} (P = 10/50/90%), and the number of
    identically-sized embedding tables.  All other parameters come from RM1.
    """
    mlp_key = mlp_size.lower()
    locality_key = locality.lower()
    if mlp_key not in MICROBENCHMARK_MLP_PRESETS:
        raise ValueError(
            f"unknown MLP size {mlp_size!r}; choose from {sorted(MICROBENCHMARK_MLP_PRESETS)}"
        )
    if locality_key not in LOCALITY_PRESETS:
        raise ValueError(
            f"unknown locality {locality!r}; choose from {sorted(LOCALITY_PRESETS)}"
        )
    bottom, top = MICROBENCHMARK_MLP_PRESETS[mlp_key]
    base = rm1()
    config = base.with_mlp(bottom, top)
    config = config.with_locality(LOCALITY_PRESETS[locality_key])
    config = config.scaled_tables(num_tables)
    return config.with_name(f"micro-{mlp_key}-{locality_key}-{num_tables}t")
