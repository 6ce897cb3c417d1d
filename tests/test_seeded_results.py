"""Every algorithm's seeded results, pinned by digest.

Each case runs h1 or h3 with d=6, K=4, T=300, 2 repetitions from base seed 5
under the neural protocol's lam=0.01 and eta=0.001 with a width-8 network,
and compares the SHA-256 of each repetition's instant-regret vector (float64
bytes) with the digest recorded below.  A change that keeps the
floating-point operations and the generator draws in the same order keeps
every digest.  A change meant to alter results must regenerate them, by
running this file as a script, and say why.

    PYTHONPATH=src python3 tests/test_seeded_results.py

T=300 stays below the full design's refresh every 512 updates, so one more
digest pins a full design's stream across two refreshes: 1,100 seeded
rank-one updates at p=100, the quadratic forms of 4 fresh rows and the
log-det after each, then Z and its inverse.  A refresh's LAPACK
factorization rounds differently at different BLAS thread counts, so that
stream runs in a child process with BLAS pinned to one thread, as the
benchmark's workers run.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neuralbandit
from neuralbandit.confidence import DesignMatrix
from neuralbandit.harness import EnvironmentConfig, ExperimentConfig, PolicyConfig, run_experiment

VARIANTS = {
    "neural_ucb-full": dict(algorithm="neural_ucb"),
    "neural_ucb-diagonal": dict(algorithm="neural_ucb", design_mode="diagonal"),
    "neural_ucb-gamma-null": dict(algorithm="neural_ucb", gamma=None),
    "neural_greedy-eps0.05": dict(algorithm="neural_greedy", epsilon=0.05),
    "neural_greedy-eps0": dict(algorithm="neural_greedy", epsilon=0.0),
    "neural_ucb0-full": dict(algorithm="neural_ucb0", gamma=None),
    "neural_ucb0-diagonal": dict(algorithm="neural_ucb0", gamma=None, design_mode="diagonal"),
    "neural_ucb0-gamma0.1": dict(algorithm="neural_ucb0", gamma=0.1),
    "neural_greedy0-full": dict(algorithm="neural_greedy0"),
    "neural_greedy0-diagonal": dict(algorithm="neural_greedy0", design_mode="diagonal"),
    "lin_ucb-raw": dict(algorithm="lin_ucb", gamma=1.0),
    "lin_ucb-preprocess": dict(algorithm="lin_ucb", gamma=1.0, preprocess=True),
    "lin_ucb-gamma-null": dict(algorithm="lin_ucb", gamma=None),
    "kernel_ucb": dict(algorithm="kernel_ucb", gamma=1.0),
    "random": dict(algorithm="random"),
}
KINDS = ("h1", "h3")


def config(kind, variant):
    return ExperimentConfig(
        environment=EnvironmentConfig(kind=kind, dimension=6, num_actions=4, horizon=300),
        policy=PolicyConfig(width=8, lam=0.01, eta=0.001, **VARIANTS[variant]),
        repetitions=2,
        base_seed=5,
    )


def digests(kind, variant):
    return [hashlib.sha256(np.ascontiguousarray(r.instant_regret, dtype=np.float64)
                           .tobytes()).hexdigest()
            for r in run_experiment(config(kind, variant))]


EXPECTED = {
    "h1/neural_ucb-full": [
        "ea72af3592c15fbda80fd96e52ead6ef568b95c9628d8c00786c976fdd5b14b5",
        "391548747563d40b3ed52b16ed8eff38b1dc24c438997e2e5e00550c6914910a",
    ],
    "h1/neural_ucb-diagonal": [
        "519ae1dfcc43f4ee8acfadba8641fef9e2e230ed718ef325660f31eef600485c",
        "e7d4593c8edfa799432abe976dba0d82548a2104fc60f6b94125de63b3e80769",
    ],
    "h1/neural_ucb-gamma-null": [
        "488255d18a95b6bfb5c4b2d871df374247deec29a4c1596c8ffb9608537609f0",
        "3011170c076a569429c6f38ed67775b082e67a47159c8eeb0d3f406aa9236ea6",
    ],
    "h1/neural_greedy-eps0.05": [
        "2d8a2f211afb552763444804a946e7cfba67264c5e38900b26e5063474062c86",
        "9ebc6105496124f1116b3f1515c19344150521500b3ede367ee2478a427fea6d",
    ],
    "h1/neural_greedy-eps0": [
        "c13970cf7ab2234d6eae4ec55e21dd1f9291d36f74850ee476e8e00bcfc23555",
        "c6618dd3c6e0eb3e10259401b0e0399f479a41d59931051c93bfcfcb1acb6569",
    ],
    "h1/neural_ucb0-full": [
        "70b538a703ae3ec90b932eb26c248dec4debf679e6c945476274aec6bae972b1",
        "f85f703632e0d7d9ff5e60cb58c9fc2f57a739f2230731e9803e73928fbc770a",
    ],
    "h1/neural_ucb0-diagonal": [
        "3ac712739ea64ab8db43da423dbe327ac795d33050c6bd5299ade64bf04cd49f",
        "433cb3b2b6f2e9cb72b1ad1489b2bbdfc13163653ca3ccd6345c784faacd4a57",
    ],
    "h1/neural_ucb0-gamma0.1": [
        "a819ae87a87682dfdc2c2c7a2ab52b871cd0ea2e6b5c3c30b1990f74cafdf83d",
        "d52e8c5d66b7d676edaa23aae30795ea3215943ba04cfb32469179290077b13b",
    ],
    "h1/neural_greedy0-full": [
        "7c764273ba70a1ed94fc539420cb9f7bc9170d8ef3cefd4a553ece64f1941807",
        "806e93fe6c8755d3f266bce9869218aa730faa3d8dde1e8c6a0a27bb256c53fd",
    ],
    "h1/neural_greedy0-diagonal": [
        "2653a2d3ce8e9dc83c3c839ca8017d4293170a25cfa8faaf9e39c353543bfdcf",
        "e06f430361e4df5fdd92acea285c85d81f6c7c5897c55c5a9a89fdd498e959ff",
    ],
    "h1/lin_ucb-raw": [
        "e2b77842f204a23aec5cd04dcc17019bdc27b97cbccb5dd20850cce759d6bc08",
        "100bc7cf1e658fc91378544d7f8667fcbfa895751e2c65bf30d6ac08c937cda8",
    ],
    "h1/lin_ucb-preprocess": [
        "223ffc66d99506f4fc828b6ba8f1955e7d6e312abd56b9df78fa76e81a8a695a",
        "bfd840143c8d8b6e2c66d734a962e40c3d79cda8cf9adfcf0fcbf2e6d84fc547",
    ],
    "h1/lin_ucb-gamma-null": [
        "5c26dba99cdeb529d11c31d50c3102d30b0506e9505ba78fb99f7af9ca46806d",
        "591118d4c190335d74386e4651243f547e0aa4d19356c318371104bb7c8454bc",
    ],
    "h1/kernel_ucb": [
        "77c1ab3517b5e8ab3f09a9d1c7119b37287d7aca0a1c3187c0543d66fab1c26a",
        "8a7fa5eeef2fe5f621207f0ef0aa1ebc2d1704432988318d9722c9d8175cad68",
    ],
    "h1/random": [
        "57a565f7e7d2edf251521dd6a0d2de62bad63c51293eb914307eaf7533c35907",
        "f4256ca777eefb2bad8ed68b99fd9422f8c8c1ad17050da82420fe14263d866b",
    ],
    "h3/neural_ucb-full": [
        "07c48a0ac7c270a23f152497d335b05c81cc22dbf1e47cd5744bd5df8e98b4fd",
        "cd533566f7edc2e7558c4a80e778169128e16cca72f2b00e38f97715a414c404",
    ],
    "h3/neural_ucb-diagonal": [
        "10a04cdd2f8a7405a4a417d95a5c51b68b6f74e8fad9cf2fdeb1afd9d8017c29",
        "27252ca39f01cf3120f1ee61fb47004fa09aed1fa86d84dfeab52576e7b31e03",
    ],
    "h3/neural_ucb-gamma-null": [
        "b3238c9442f485fbc418943bf6ab69fee55b2b2998402540e28855893f947b74",
        "ce651c876a300610bd7518d8b991e996a2e2c11f2954a1f6525c0e28dee67a82",
    ],
    "h3/neural_greedy-eps0.05": [
        "04407482659c45d0c12476b5189316ebf8bdaf1febb9ddc4b3d4431658c5f555",
        "66b12284d61367a75c1853374efb80ff92e4cca997ff6335ccdf45b4487f6502",
    ],
    "h3/neural_greedy-eps0": [
        "a7aecbcddac48d29419f0caa3a6cf8f4ed4bceb17a82d27308e6551cc2e88c16",
        "48d8314452e88a1e372e5482a864529087563499463e1a183322f9f991b51268",
    ],
    "h3/neural_ucb0-full": [
        "4720f6d37d4ab463c868abf1e60e9fbd8021b52ee4e4026141b65ea1875b8cd3",
        "eba1168f68c830547dcdc7dd7346f0eaf88b5c52a044391f29866bae21ab9bdc",
    ],
    "h3/neural_ucb0-diagonal": [
        "4fc75ff3fd3cf58491aa6bb05a1fbd569ee371ddd03813f1606cc23003e216ec",
        "e17da0cd516f46907c2c46b4548f78c6036b4f3d9bb21eeb14e441dc743c8fef",
    ],
    "h3/neural_ucb0-gamma0.1": [
        "dada3405b9a4163e8a415aa1e87326501f6ac69dd1ab56016410991af828c91b",
        "8750955a825022eb7ac15000d2c3c1d5cd33b7b9c6cb79c5eb80146dbd491088",
    ],
    "h3/neural_greedy0-full": [
        "dc7df10cf5c14f1df1b93428bea0236694c66ee07fb5610d4a050a91ae79e101",
        "f18b2988b8a055ca91654af6e8b4c3f264e0dc9d764e986d81f168e8c267dd36",
    ],
    "h3/neural_greedy0-diagonal": [
        "293918cc9726c25f4ce94a3723ac23fea8292cf18b52533b564558d6a89596bd",
        "48dd24539bb1780ed3a715a68eabcc460f9bc25c291c4a056de5ba2e35823332",
    ],
    "h3/lin_ucb-raw": [
        "438f4bc706112da02741a83b1048e75cf2bb0b306b6ba0fa00ef39e129b1d6a6",
        "08389106b7d8b51680c316087402c92cd539eb9337f96a553289f439af664039",
    ],
    "h3/lin_ucb-preprocess": [
        "77468a3716b36a96d2c5bb868e9dd6f7684c4a63e6d6fc973d6f36ad1b308205",
        "0664964193569c05498b7cd3528ed9b5d4159d64d2181f5c57ffac3df4028cc7",
    ],
    "h3/lin_ucb-gamma-null": [
        "54e78f4dbe79b37cfaa8de00c16e246ea8ecb4af9159c461fe290277d6ce1166",
        "65e3ecb8f7dfaff9409c92ffafc55467ce0ed1e6734711d8124f5f8f07b4a27e",
    ],
    "h3/kernel_ucb": [
        "8e1017b32035c85bdd63160f182919def629ff820cc9f1f6f7317e14073de616",
        "56c75eedd10c5f0c9bc02d86d1ca9a36fc73cd13752ddd9ccf335b4c02da2e16",
    ],
    "h3/random": [
        "92e40f54db4b77971a68b4ea590baf5f5c25776fd3fb80b27474e45e0f98e50f",
        "cbd11f55ca919350766ac7efdc227f90706ca2370588eb98eabc2c27e2acc981",
    ],
}


EXPECTED_DESIGN_STREAM = "1f52610edd0951f16d089f25541ac909b718abdb0258ff7d4799a0ff6054c45f"


def design_stream_digest():
    rng = np.random.default_rng(11)
    p, k = 100, 4
    design = DesignMatrix(p, 0.5)
    digest = hashlib.sha256()
    for _ in range(1100):
        design.rank_one_update(rng.standard_normal(p) / math.sqrt(p))
        digest.update(design.quadratic_form(rng.standard_normal((k, p))).tobytes())
        digest.update(np.float64(design.log_det_ratio()).tobytes())
    digest.update(design.matrix.tobytes())
    digest.update(design.inverse.tobytes())
    return digest.hexdigest()


def pinned_design_stream_digest():
    """design_stream_digest() run in a child process with BLAS pinned to one thread."""
    src = str(Path(neuralbandit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, __file__, "--design-stream"], env=env,
                          capture_output=True, text=True, check=True, timeout=120).stdout.strip()


@pytest.mark.parametrize("kind,variant", [(k, v) for k in KINDS for v in VARIANTS])
def test_seeded_regret_is_unchanged(kind, variant):
    assert digests(kind, variant) == EXPECTED[f"{kind}/{variant}"]


def test_design_stream_across_refreshes_is_unchanged():
    assert pinned_design_stream_digest() == EXPECTED_DESIGN_STREAM


if __name__ == "__main__":
    if sys.argv[1:] == ["--design-stream"]:
        print(design_stream_digest())
        sys.exit()
    for kind in KINDS:
        for variant in VARIANTS:
            print(f'    "{kind}/{variant}": [')
            print("".join(f'        "{d}",\n' for d in digests(kind, variant)) + "    ],")
    print(f'EXPECTED_DESIGN_STREAM = "{pinned_design_stream_digest()}"')
