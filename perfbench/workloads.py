"""The benchmark workloads: what each sets up, what one timed pass does,
and which traced stages a pass must reach.

Every workload is built from its seed alone and drives only the public
API of ``nn``, ``pruning``, ``mapping`` and ``circuit``. Why each one was
chosen is written down in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from xbarprune import circuit, mapping, nn, pruning

SPARSITY = 0.5
WCT_EPOCHS = 1
SCREEN_ORDERS = (None, "ascending", "center_out")

# Stages every simulated pass reaches, whatever the configuration.
SIM_STAGES = {"mapping.simulate", "mapping.encode", "mapping.decode",
              "mapping.recombine", "circuit.variation", "circuit.build",
              "circuit.factorize", "circuit.geff"}


@dataclass
class Config:
    """One way of putting the model on crossbars."""

    name: str                           # "dense" | "cf" | "xcs"
    order: str | None                   # column rearrangement; None keeps the order
    pattern: pruning.SparsityPattern | None
    weights: dict[str, np.ndarray]      # masked unrolled weights per layer
    compactions: dict = field(default_factory=dict)


def make_config(name, order, weights, spec, n, seed) -> Config:
    """Mask generation, mask application and compaction for one
    configuration; everything here counts as set-up."""
    if name == "dense":
        return Config(name, order, None, dict(weights))
    if name == "cf":
        pattern = pruning.gen_mask_cf(spec, SPARSITY, seed)
    else:
        pattern = pruning.gen_mask_xcs(spec, SPARSITY, n, seed)
    masked, compactions = {}, {}
    for layer, w in weights.items():
        mask = pattern.masks[layer]
        masked[layer] = pruning.apply_mask(w, mask)
        compactions[layer] = (pruning.cf_compaction(mask) if name == "cf"
                              else pruning.compact_xcs(masked[layer], n, mask))
    return Config(name, order, pattern, masked, compactions)


def simulate(config: Config, n: int, seed: int) -> dict:
    params = circuit.default_params(n)
    return {(config.name, layer): mapping.simulate_layer(
                w, params, rearrange=config.order is not None,
                rearrange_order=config.order or "ascending",
                compaction=config.compactions.get(layer),
                master_seed=seed, layer_index=idx)
            for idx, (layer, w) in enumerate(config.weights.items())}


@dataclass
class CheckedLayer:
    """A layer mapping whose tiles the correctness checks sample."""

    key: str
    w: np.ndarray
    n: int
    order: str | None
    compaction: object | None


@dataclass
class SimState:
    spec: nn.ModelSpec
    configs: list[Config]


class SimWorkload:
    """Simulate every layer of the model's seeded initial weights under
    each configuration; the network is never trained."""

    def __init__(self, seed: int, n: int, configs, spec_fn=nn.reference_model_spec):
        self.seed, self.n, self.configs, self.spec_fn = seed, n, configs, spec_fn
        self.expected_pass = set(SIM_STAGES)
        if any(order for _, order in configs):
            self.expected_pass.add("mapping.rearrange")
        pruned = any(name != "dense" for name, _ in configs)
        self.expected_setup = {"pruning.mask", "pruning.compact"} if pruned else set()

    def setup(self) -> SimState:
        spec = self.spec_fn(self.seed)
        weights = nn.Network(spec).unrolled_weights()
        return SimState(spec, [make_config(name, order, weights, spec, self.n, self.seed)
                               for name, order in self.configs])

    def run_pass(self, state: SimState) -> dict:
        results = {}
        for config in state.configs:
            results.update(simulate(config, self.n, self.seed))
        return {"configs": state.configs, "layers": results}

    def checked_layers(self, state: SimState) -> list[CheckedLayer]:
        return [CheckedLayer(f"{config.name}/{layer}", w, self.n, config.order,
                             config.compactions.get(layer))
                for config in state.configs for layer, w in config.weights.items()]


@dataclass
class PaperState:
    spec: nn.ModelSpec
    train: nn.Dataset
    test: nn.Dataset
    model: nn.Network
    config: Config


class PaperWorkload:
    """The paper's experiment: train under cf@0.5, one WCT epoch, evaluate,
    screen NF at the larger tile size for each column order, simulate at
    the smaller one with ascending order, evaluate the non-ideal model."""

    expected_pass = SIM_STAGES | {"mapping.rearrange", "mapping.layer_nf",
                                  "circuit.solve", "nn.train", "nn.wct",
                                  "nn.evaluate"}
    expected_setup = {"pruning.mask", "pruning.compact"}

    def __init__(self, seed: int, n: int = 32, screen_n: int = 64,
                 n_train: int = 2000, n_test: int = 1000, epochs: int = 3,
                 spec_fn=nn.reference_model_spec):
        self.seed, self.n, self.screen_n = seed, n, screen_n
        self.n_train, self.n_test = n_train, n_test
        self.epochs, self.spec_fn = epochs, spec_fn

    def setup(self) -> PaperState:
        train, test = nn.gen_synthetic_dataset(self.seed, self.n_train, self.n_test)
        spec = self.spec_fn(self.seed)
        model = nn.Network(spec)
        config = make_config("cf", "ascending", model.unrolled_weights(), spec,
                             self.n, self.seed)
        model.set_unrolled_weights(config.weights)
        return PaperState(spec, train, test, model, config)

    def run_pass(self, state: PaperState) -> dict:
        model = state.model.copy()
        train_cfg = nn.TrainConfig(epochs=self.epochs, seed=self.seed,
                                   pattern=state.config.pattern,
                                   wct=nn.WctConfig(epochs=WCT_EPOCHS))
        nn.train(model, state.train, train_cfg)
        _, w_cut = nn.wct_train(model, state.train, train_cfg)
        acc_ideal = nn.evaluate(model, state.test)
        trained = Config("cf", "ascending", state.config.pattern,
                         model.unrolled_weights(), state.config.compactions)
        screen_params = circuit.default_params(self.screen_n)
        screen = {order or "none": {layer: mapping.layer_nf(
                      w, screen_params, rearrange=order is not None,
                      rearrange_order=order or "ascending",
                      compaction=trained.compactions[layer],
                      master_seed=self.seed, layer_index=idx).mean_nf
                      for idx, (layer, w) in enumerate(trained.weights.items())}
                  for order in SCREEN_ORDERS}
        results = simulate(trained, self.n, self.seed)
        nonideal = nn.inject_nonideal_weights(
            model, {layer: r.w_nonideal for (_, layer), r in results.items()})
        acc_nonideal = nn.evaluate(nonideal, state.test)
        return {"configs": [trained], "layers": results, "w_cut": w_cut,
                "screen_nf_mean": screen,
                "accuracy": {"ideal": acc_ideal, "nonideal": acc_nonideal}}

    def checked_layers(self, state: PaperState) -> list[CheckedLayer]:
        out = []
        for layer, w in state.config.weights.items():
            comp = state.config.compactions[layer]
            out.append(CheckedLayer(f"cf/{layer}", w, self.n, "ascending", comp))
            out.append(CheckedLayer(f"screen/{layer}", w, self.screen_n, None, comp))
        return out


WORKLOADS = {
    "sim-n32": lambda seed, **kw: SimWorkload(
        seed, **{"n": 32, "configs": (("dense", None), ("cf", "ascending"),
                                      ("xcs", None)), **kw}),
    "sim-n128": lambda seed, **kw: SimWorkload(
        seed, **{"n": 128, "configs": (("dense", None),), **kw}),
    "paper-e2e": PaperWorkload,
}


def make(name: str, seed: int, **overrides):
    """Workload ``name`` for ``seed``; overrides shrink it for tests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, **overrides)
