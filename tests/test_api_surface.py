"""The package's public surface.

The names the package root exports are frozen here, so adding or removing
one is a deliberate edit of this list.  Every module's ``__all__`` must name
only what the module defines, and the root must re-export only such names.
"""

import importlib
import pkgutil
import types

import dnclab

ROOT_NAMES = [
    "ACTIVATION_NAMES",
    "Activation",
    "BoundContext",
    "CONFIG_SCHEMA",
    "CONSTANT_PAD",
    "ConditionVerdict",
    "ConfigError",
    "DepthPlan",
    "Domain",
    "EventuallyConstSeq",
    "Experiment",
    "GenSpec",
    "INF",
    "Instance",
    "LayerSeq",
    "LimitConstants",
    "MaskSeq",
    "MaskSpec",
    "ONE",
    "PNorm",
    "PoolingOp",
    "REPORT_SCHEMA",
    "RateFit",
    "SamplerSpec",
    "StateRow",
    "StudyResult",
    "StudyRow",
    "TWO",
    "Trajectory",
    "ZERO_PAD",
    "apply_banded",
    "as_matrix",
    "as_vector",
    "average_pooling",
    "build",
    "build_masks",
    "check_condition",
    "check_mask_conditions",
    "cnn_layer_seq",
    "control_instances",
    "convergence_study",
    "corpus_instances",
    "cumulative_products",
    "derive_limit_constants",
    "elu",
    "eval_extended_trajectory",
    "eval_trajectory",
    "fit_exponential_rate",
    "identity",
    "induced_norm",
    "leaky_relu",
    "load_config",
    "make_activation",
    "matvec",
    "max_pooling",
    "no_pooling",
    "parse_config",
    "prelu",
    "relu",
    "render_report",
    "render_table",
    "report_payload",
    "rescale_to_norm",
    "selu",
    "seq_sum",
    "sigmoid",
    "state_deviation",
    "strip_generated_at",
    "tail_product_sums",
    "tanh",
    "toeplitz_matrix",
    "vector_norm",
    "weighted_tail_sums",
]


def _modules():
    """Every module of the package except the ``python -m`` entry point."""
    for info in pkgutil.iter_modules(dnclab.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"dnclab.{info.name}")


def _root_names() -> list[str]:
    """The root's public names, without the submodules that importing any
    of them binds there."""
    return sorted(
        name
        for name, value in vars(dnclab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_root_names_are_frozen():
    assert _root_names() == ROOT_NAMES


def test_every_all_name_exists():
    for module in _modules():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_root_reexports_only_all_names():
    exported = {}
    for module in _modules():
        for name in module.__all__:
            exported.setdefault(name, getattr(module, name))
    for name in _root_names():
        assert name in exported, name
        assert getattr(dnclab, name) is exported[name], name
