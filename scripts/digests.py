"""Byte digests of a source tree's training and property-check output.

Usage: python scripts/digests.py PATH/TO/src

Imports ``nucontrast`` from the given ``src/`` tree and prints one line per
digest: the SHA-256 of checkpoint text plus history text for 9 training
configs on 2 seeds (400 rows, noise 3.0, 3 epochs), then the SHA-256 of the
stdout of ``gradcheck --trials 50 --seed 0`` and ``selftest --trials 50
--seed 0``, then the SHA-256 of the file ``save_dataset`` writes for three
synthetic sets: 20,000 x 32 and 2,000 x 32, which fall on the two sides of
``data._PARALLEL_VALUES`` (a save on two cores and one on one core), and one
made with ``n_groups=1``. Run it on two trees and diff the output: a change
that must not move bytes prints the same lines. The last line says whether
``lambda_=0`` still trains the same bytes as ``use_contrast=False``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2)


def configs(nc):
    """{name: TrainConfig keywords}; epochs and seed are added per run."""
    return {
        "b2-ema-correction": dict(batch_size=2, layer_dims=(32, 64, 16), ema_decay=0.999),
        "b2-gate-epoch-2": dict(
            batch_size=2, layer_dims=(32, 64, 16), correction=nc.CorrectionConfig(start_epoch=2)
        ),
        "b64-defaults": dict(),
        "focal-linear": dict(batch_size=8, loss_kind="focal", output_activation="linear"),
        "focal-no-contrast-ema": dict(
            batch_size=8, loss_kind="focal", use_contrast=False, ema_decay=0.99
        ),
        "softplus-unit-ema": dict(
            batch_size=4, output_activation="softplus_unit", ema_decay=0.99
        ),
        "val-fraction-0": dict(batch_size=16, val_fraction=0.0),
        "lambda-0": dict(batch_size=2, lambda_=0.0),
        "no-contrast": dict(batch_size=2, use_contrast=False),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def training_digests(nc):
    from nucontrast.model import checkpoint_text

    digests = {}
    for seed in SEEDS:
        ds = nc.generate_synthetic(400, 10, 32, 4, 3.0, seed)
        observed = nc.drop_labels(ds.truth, nc.MissingnessSpec("single", seed=seed))
        ds = nc.Dataset(ds.features, ds.truth, observed)
        for name, knobs in configs(nc).items():
            trained, history = nc.train(ds, nc.TrainConfig(epochs=3, seed=seed, **knobs))
            text = checkpoint_text(trained.params, trained.ema_params) + history.to_text()
            digests[name, seed] = sha256(text)
    return digests


def check_digest(cli, command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([command, "--trials", "50", "--seed", "0"])
    return sha256(f"{out.getvalue()}exit {code}\n")


# generate_synthetic arguments after the sizes: n_groups, noise, seed
DATASETS = {
    "20000x32": (20000, 10, 32, 6, 1.0, 3),
    "2000x32": (2000, 10, 32, 6, 1.0, 3),
    "groups-1": (400, 10, 32, 1, 3.0, 3),
}


def dataset_digests(nc):
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.txt"
        for name, args in DATASETS.items():
            nc.save_dataset(nc.generate_synthetic(*args), path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[1]).resolve()))
    import nucontrast as nc
    from nucontrast import cli

    digests = training_digests(nc)
    for (name, seed), digest in digests.items():
        print(f"train {name} seed {seed} {digest}")
    for command in ("gradcheck", "selftest"):
        print(f"{command} --trials 50 --seed 0 {check_digest(cli, command)}")
    for name, digest in dataset_digests(nc).items():
        print(f"dataset {name} {digest}")
    same = all(digests["lambda-0", s] == digests["no-contrast", s] for s in SEEDS)
    print(f"lambda_=0 equals use_contrast=False: {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
