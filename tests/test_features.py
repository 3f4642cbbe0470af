"""Flattening activation tensors: each sample's n maps of n1 x n2, row-major in
channel order, become one row of the flat dataset."""

import numpy as np

from sparserec.fileio import FLAG_TENSOR, read_feature_file, write_tensor_features


def _flatten_one(tmp_path, maps):
    path = tmp_path / "t.feat"
    write_tensor_features(path, maps[np.newaxis], [0], ["s"])
    flat = read_feature_file(path, FLAG_TENSOR)
    assert flat.num_samples == 1
    return flat.features[0]


def test_flatten_two_maps(tmp_path):
    maps = np.array([[[1, 2], [3, 4]], [[5, 6], [7, 8]]], dtype=float)
    assert np.array_equal(_flatten_one(tmp_path, maps), [1, 2, 3, 4, 5, 6, 7, 8])


def test_flatten_single_entry(tmp_path):
    assert np.array_equal(_flatten_one(tmp_path, np.array([[[9.0]]])), [9.0])


def test_flatten_conv_layer_dimension(tmp_path):
    # 512 maps of 14x14 flatten to the 100352-dimensional local descriptor
    assert _flatten_one(tmp_path, np.zeros((512, 14, 14))).shape == (100352,)
