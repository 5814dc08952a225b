import struct
from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def iris_path() -> Path:
    return DATA_DIR / "iris.csv"


def write_idx_images(path, images: np.ndarray) -> None:
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4I", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2I", 0x00000801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def make_digit_images(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic 28x28 ten-class image set: one blob pattern per class plus
    pixel noise. Stands in for handwritten digits at desk scale."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=count)
    yy, xx = np.mgrid[0:28, 0:28]
    prototypes = []
    for c in range(10):
        cy, cx = 7 + 2 * (c % 4), 7 + 2 * (c // 4)
        blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * (2.0 + 0.3 * c) ** 2)))
        ring = np.exp(-((np.sqrt((yy - 14) ** 2 + (xx - 14) ** 2) - (4 + c)) ** 2) / 4.0)
        prototypes.append(170 * blob + 85 * ring)
    images = np.empty((count, 28, 28))
    for i, c in enumerate(labels):
        noise = rng.normal(0, 18, size=(28, 28))
        images[i] = np.clip(prototypes[c] + noise, 0, 255)
    return images.round(), labels


@pytest.fixture(scope="session")
def mnist_idx_files(tmp_path_factory) -> tuple[Path, Path]:
    root = tmp_path_factory.mktemp("idx")
    images, labels = make_digit_images(800, seed=20240817)
    img_path = root / "images-idx3-ubyte"
    lab_path = root / "labels-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path
