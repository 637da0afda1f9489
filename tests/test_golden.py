"""Golden report digests: the behavioural contract for refactors.

Each case runs one experiment at a small pinned config and seed and
compares the SHA-256 of both emitted reports against a value recorded
before any refactor. A rerun-equals-itself check cannot catch a change
that shifts the output consistently; these can. A change that alters a
digest on purpose must say why in CHANGES.md.
"""

import hashlib

import pytest

from wildquery.dht import ENTRY_BOUND, FULL, build_network
from wildquery.experiments import ExperimentConfig, emit, run_experiment

# (experiment, params, csv sha256, json sha256), all at seed 7
GOLDEN = [
    (
        "trie-exact", dict(m=8, w=3, k=2),
        "269728ae34217f4996e815f423a19afee3685d4fb0d068e4dcd8deb06659a886",
        "1e03a079fff9458ed5f4e093337797cf89159ca7b3e317368e58d586dc56faee",
    ),
    (
        "trie-exact", dict(m=5, w=2, k=3),
        "97f61f1c108409aec46bbdee2fb9ec5db1b359e228c9fbd239a85a49653934b4",
        "980bec36918ef113eff3af2cb10675b1afc31b2525299022343d26522d0e6787",
    ),
    (
        "trie-random", dict(m=12, w=4, k=2, population=1024, trials=1000),
        "ac79889c29b391c3a1c21c904fd1eae48902ca455b92f593267d1ad9c33efc66",
        "6b2a274de91e88416637de2c139e61b67521d34257240d46b794b8e622909d24",
    ),
    (
        "trie-random", dict(m=6, w=2, k=3, population=300, trials=300),
        "435c9f2c9ff7d177a8c384578683a1f99679fbf3625ea1079e4783a84940b164",
        "6438d2c3958424d0c7322857d29796678599a414a4a0b60c32030cd08a7d48b0",
    ),
    (
        "identity-sweep", dict(m=10),
        "22b05fa101dcdd6ee9ddf60c2c767a65e76089d5a2dd0800c624965b3ded2b35",
        "7bd9161ca04164c9532f16a3ac525e61e5c53b06ca15de40b076aeff64083180",
    ),
    (
        "position-law", dict(m=6, w=2, trials=20000),
        "bc678b24c322369f62f139abafd19738e548880cb9afbe3a729e6b2bb6eeb3f4",
        "514ef8926bce82b89448f8f86464c4eb992a1d3f7592598455ace6bdfa8a7159",
    ),
    (
        "chord-single",
        dict(m=10, n=64, trials=200, entries_factor=1, mode="full"),
        "022f6d9b10fddbf84ac225f1cafc230907877a3877371ff491c4a4aa3ab882d7",
        "8e58e371f55546c392747dcd0d60dda303f1c023c9251509fd827fbb3db51434",
    ),
    (
        "chord-single", dict(m=8, n=16, trials=0, entries_factor=1, mode="full"),
        "ea3f64f64ceebaa77bdddd7f47ac55c8a7f68a7523d5930439bd09cf78fbf410",
        "c8b95f335784557cbb2fb553f4374ee7a88f397337b1128f429afe208ba3b3fe",
    ),
    (
        "chord-wildcard",
        dict(m=12, w=3, n=256, trials=60, entries_factor=4, mode="full"),
        "939e0f10ff8f9977674f5cca6a51aa19f78d6de9d165174c2538fef8919b1b0f",
        "81371f006c816e6ba9100e62dc59476c1c1c21108dca34f69236ff5b43c11dcb",
    ),
    (
        "chord-decay",
        dict(m=8, n=16, trials=50, entries_factor=4, mode="entry-bound"),
        "2ae57156307898e8364241adcf6490a3b7847f67a2adfd32e4d8beb7d1076afe",
        "08fae1a700f9b8866365fcd2c60efa83598faecc93c5d440b30c173d1be378a3",
    ),
]


def _case_id(case):
    name, params = case[0], case[1]
    if "k" in params:
        return f"{name}-k{params['k']}"
    if name == "chord-single" and params["trials"]:
        return f"{name}-sampled"  # beside the sweep, trials=0
    return name


@pytest.mark.parametrize("case", GOLDEN, ids=map(_case_id, GOLDEN))
def test_report_digests(case, tmp_path):
    name, params, csv_sha, json_sha = case
    report = run_experiment(ExperimentConfig(experiment=name, seed=7, **params))
    for fmt, expected in (("csv", csv_sha), ("json", json_sha)):
        path = tmp_path / f"report.{fmt}"
        emit(report, fmt, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, fmt


# SHA-256 of ChordNetwork.snapshot(), which prints every node's fingers
# and entry count; the chord report digests above see these only through
# hop counts
SNAPSHOTS = {
    "full": "7f2cb27c8f11537d6d8a36719213e5a7b7ff8958314e2f03936410721a593d5c",
    "entry-bound": (
        "b28e18a00150c393e4e7c7f0d122f7b3ac6c2382bdec82f6d946d55fa7a03514"
    ),
}


def _snapshot_sha(net):
    return hashlib.sha256(net.snapshot().encode()).hexdigest()


def test_ring_snapshot_digests():
    net = build_network(32, 10, seed=7, finger_mode=FULL)
    net.distribute_entries(320, seed=8)
    assert _snapshot_sha(net) == SNAPSHOTS["full"]

    net = build_network(24, 10, seed=9, finger_mode=ENTRY_BOUND)
    net.distribute_entries(60, seed=10)
    assert _snapshot_sha(net) == SNAPSHOTS["entry-bound"]
