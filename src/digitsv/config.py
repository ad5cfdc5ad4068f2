"""Pipeline configuration: key=value files with command-line overrides.

Flags always win over the file.  Unknown keys are rejected so typos do not
silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import DigitsvError
from .hmm import SILENCE_POLICIES


@dataclass
class PipelineConfig:
    # alignment flow
    silence_policy: str = "optional_between"
    # model sizes
    hmm_components: int = 16
    ubm_components: int = 512
    pgmm_components: int = 16
    pgmm_em_iterations: int = 4
    mlp_hidden: str = "512,512,512,512"
    mlp_epochs: int = 15
    mlp_learning_rate: float = 0.05
    mlp_batch_size: int = 256
    # backends
    relevance: float = 5.0
    ivector_rank: int = 400
    tv_iterations: int = 5
    lda_dim: int = 100
    plda_iterations: int = 10
    # content verification
    epsilon: float = 1e-5
    class_level: str = "digit"
    # detection-cost operating points, "c_miss,c_fa,p_target"
    dcf_sre08: str = "10,1,0.01"
    dcf_sre10: str = "1,1,0.001"
    # misc
    seed: int = 0

    def __post_init__(self):
        if self.silence_policy not in SILENCE_POLICIES:
            raise DigitsvError(f"silence_policy must be one of {', '.join(SILENCE_POLICIES)}, "
                               f"got {self.silence_policy!r}")
        if self.class_level not in ("digit", "state"):
            raise DigitsvError(f"class_level must be digit or state, got {self.class_level!r}")
        if self.ivector_rank < 1:
            raise DigitsvError(f"ivector_rank must be at least 1, got {self.ivector_rank}")
        for name in ("pgmm_em_iterations", "tv_iterations", "plda_iterations"):
            if getattr(self, name) < 0:
                raise DigitsvError(f"{name} must not be negative, got {getattr(self, name)}")
        # mixtures grow by splitting every component, so sizes are powers of two
        for name in ("hmm_components", "ubm_components", "pgmm_components"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise DigitsvError(f"{name} must be a power of two, got {value}")
        for name in ("mlp_epochs", "mlp_batch_size"):
            if getattr(self, name) < 1:
                raise DigitsvError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("relevance", "epsilon"):
            if not getattr(self, name) > 0:  # also rejects nan
                raise DigitsvError(f"{name} must be positive, got {getattr(self, name)}")
        self.dcf_params("sre08"), self.dcf_params("sre10")  # validate eagerly

    @property
    def mlp_hidden_dims(self) -> tuple:
        try:
            dims = tuple(int(v) for v in self.mlp_hidden.split(",") if v.strip())
        except ValueError:
            raise DigitsvError(f"bad mlp_hidden value {self.mlp_hidden!r}") from None
        if not dims or min(dims) < 1:
            raise DigitsvError(f"bad mlp_hidden value {self.mlp_hidden!r}")
        return dims

    def dcf_params(self, name: str):
        from .eval_trials import DcfParams

        raw = getattr(self, f"dcf_{name}", None)
        if raw is None:
            raise DigitsvError(f"unknown DCF operating point {name!r}")
        try:
            c_miss, c_fa, p_target = (float(v) for v in raw.split(","))
            return DcfParams(c_miss, c_fa, p_target)
        except ValueError as exc:
            raise DigitsvError(f"bad dcf_{name} value {raw!r}: {exc}") from None


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def parse_config_lines(lines) -> dict:
    """Parse key=value lines into typed overrides."""
    overrides = {}
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DigitsvError(f"config line {no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise DigitsvError(f"config line {no}: unknown key {key!r}")
        overrides[key] = _coerce(key, value, no)
    return overrides


def _coerce(key: str, value: str, line_no: int):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        return value
    except ValueError:
        raise DigitsvError(f"config line {line_no}: bad value {value!r} for {key}") from None


def load_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Build a config from an optional file plus explicit overrides (flags win)."""
    merged: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            merged.update(parse_config_lines(fh))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise DigitsvError(f"unknown config key {key!r}")
        merged[key] = value
    return PipelineConfig(**merged)
