import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexdog.dog import IntensityImage
from flexdog.errors import FormatError, InvalidParameterError
from flexdog.imageio import (
    PATTERN_NAMES,
    binarize,
    codes_to_gray,
    intensity_to_gray,
    load_idx_image,
    make_pattern,
    read_pgm,
    write_pgm,
)


def write_idx(path, images):
    """images: uint8 array (count, rows, cols)."""
    count, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, count, rows, cols))
        f.write(images.tobytes())


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (3, 28, 28), dtype=np.uint8)
        path = tmp_path / "images.idx"
        write_idx(path, images)
        img = load_idx_image(path, 1)
        assert img.pixels.shape == (28, 28)
        assert np.array_equal(img.pixels, images[1].astype(float) / 255.0)

    def test_full_scale_byte_maps_to_one(self, tmp_path):
        images = np.full((1, 4, 4), 255, dtype=np.uint8)
        path = tmp_path / "white.idx"
        write_idx(path, images)
        assert np.all(load_idx_image(path, 0).pixels == 1.0)

    def test_label_magic_rejected(self, tmp_path):
        path = tmp_path / "labels.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">ii", 2049, 10))
            f.write(bytes(10))
        with pytest.raises(FormatError):
            load_idx_image(path, 0)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "images.idx"
        write_idx(path, np.zeros((2, 4, 4), dtype=np.uint8))
        with pytest.raises(InvalidParameterError, match="index 2 out of range"):
            load_idx_image(path, 2)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">iiii", 2051, 1, 28, 28))
            f.write(bytes(100))
        with pytest.raises(FormatError):
            load_idx_image(path, 0)

    @pytest.mark.parametrize("sizes", [(1, -28, 28), (1, 28, 0), (-1, 4, 4), (0, 4, 4)])
    def test_nonpositive_sizes_rejected(self, tmp_path, sizes):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">iiii", 2051, *sizes))
            f.write(bytes(28 * 28))
        with pytest.raises(FormatError):
            load_idx_image(path, 0)

    def test_count_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">iiii", 2051, 3, 4, 4))
            f.write(bytes(16))  # one image of the three declared
        with pytest.raises(FormatError):
            load_idx_image(path, 0)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(FormatError):
            load_idx_image(path, 0)


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        gray = rng.integers(0, 256, (14, 9), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, gray)
        back = read_pgm(path)
        assert np.array_equal(np.rint(back.pixels * 255).astype(np.uint8), gray)

    def test_header_is_binary_p5(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert len(data) == len(b"P5\n3 2\n255\n") + 6

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = read_pgm(path)
        assert img.pixels.shape == (2, 2)
        assert img.pixels[1, 0] == 1.0

    def test_ascii_pgm_rejected(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n-4 4\n255\n", b"P5\nx 4\n255\n",
                                        b"P5\n4.0 4\n255\n", b"P5\n4 0\n255\n",
                                        b"P5\n4 4\n0\n", b"P5\n4 4\n256\n"])
    def test_bad_header_sizes_rejected(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(16))
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5 2 2 100\n" + bytes([0xC8, 0, 0, 0]))
        with pytest.raises(FormatError, match="exceeds maxval"):
            read_pgm(path)

    def test_sample_at_maxval_is_one(self, tmp_path):
        path = tmp_path / "max.pgm"
        path.write_bytes(b"P5 2 1 100\n" + bytes([100, 50]))
        assert np.array_equal(read_pgm(path).pixels, [[1.0, 0.5]])


def _unit_intensities_or_format_error(read):
    try:
        image = read()
    except (FormatError, InvalidParameterError):
        return
    assert 0.0 <= image.pixels.min() and image.pixels.max() <= 1.0


RASTER_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def raster_path(tmp_path_factory):
    return tmp_path_factory.mktemp("rasters") / "raster"


class TestArbitraryRasters:
    """Well-formed headers over arbitrary raster bytes: a reader returns
    intensities in [0, 1] or raises FormatError (or InvalidParameterError for
    an IDX image index beyond the file), never anything else."""

    @RASTER_SETTINGS
    @given(width=st.integers(1, 6), height=st.integers(1, 6), maxval=st.integers(1, 255),
           data=st.data())
    def test_pgm(self, raster_path, width, height, maxval, data):
        raster = data.draw(st.binary(min_size=width * height, max_size=width * height))
        raster_path.write_bytes(f"P5\n{width} {height}\n{maxval}\n".encode() + raster)
        _unit_intensities_or_format_error(lambda: read_pgm(raster_path))

    @RASTER_SETTINGS
    @given(count=st.integers(1, 3), rows=st.integers(1, 6), cols=st.integers(1, 6),
           index=st.integers(0, 3), data=st.data())
    def test_idx(self, raster_path, count, rows, cols, index, data):
        size = count * rows * cols
        raster = data.draw(st.binary(min_size=size, max_size=size))
        raster_path.write_bytes(struct.pack(">iiii", 2051, count, rows, cols) + raster)
        _unit_intensities_or_format_error(lambda: load_idx_image(raster_path, index))


class TestVisualization:
    def test_zero_code_is_mid_gray(self):
        gray = codes_to_gray(np.zeros((3, 3), dtype=np.int64))
        assert np.all(gray == 128)

    def test_full_range_mapping(self):
        gray = codes_to_gray(np.array([[-255, 0, 255]]))
        assert gray.tolist() == [[1, 128, 255]]

    def test_clipping(self):
        gray = codes_to_gray(np.array([[-1000, 1000]]))
        assert gray.tolist() == [[0, 255]]

    def test_intensity_to_gray(self):
        img = IntensityImage(np.array([[0.0, 0.5, 1.0]]))
        assert intensity_to_gray(img).tolist() == [[0, 128, 255]]


class TestBinarize:
    def test_threshold(self):
        img = IntensityImage(np.array([[0.784, 0.3]]))
        out = binarize(img, 0.5)
        assert out.pixels.tolist() == [[1.0, 0.0]]

    def test_all_zero_image_stays_zero(self):
        img = IntensityImage(np.zeros((3, 3)))
        assert np.all(binarize(img, 0.5).pixels == 0.0)

    def test_zero_threshold_turns_everything_on(self):
        img = IntensityImage(np.array([[0.0, 0.2]]))
        assert np.all(binarize(img, 0.0).pixels == 1.0)

    def test_threshold_validated(self):
        with pytest.raises(InvalidParameterError):
            binarize(IntensityImage(np.zeros((2, 2))), 1.5)


class TestPatterns:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_patterns_are_28x28_in_range(self, name):
        img = make_pattern(name)
        assert img.pixels.shape == (28, 28)

    def test_step_halves(self):
        img = make_pattern("step")
        assert np.all(img.pixels[:, :14] == 0.0)
        assert np.all(img.pixels[:, 14:] == 1.0)

    def test_constant_level(self):
        assert np.all(make_pattern("constant").pixels == 0.5)

    def test_dot(self):
        img = make_pattern("dot")
        assert img.pixels.sum() == 1.0
        assert img.pixels[14, 14] == 1.0

    def test_checkerboard_binary(self):
        img = make_pattern("checkerboard")
        assert set(np.unique(img.pixels)) == {0.0, 1.0}

    def test_unknown_pattern(self):
        with pytest.raises(InvalidParameterError):
            make_pattern("spiral")
