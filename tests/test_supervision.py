from hoimix.supervision import SupervisionTag


def test_fs_routes_to_region_loss_and_fs_buffer():
    assert SupervisionTag.FS.region_level is True


def test_ws_routes_to_image_loss_and_ws_buffer():
    assert SupervisionTag.WS.region_level is False


def test_us_with_pseudo_labels_uses_fs_machinery():
    # US reaches training only with pseudo triplets, i.e. region-level targets
    assert SupervisionTag.US.region_level is True


def test_tags_serialize_verbatim():
    assert [str(t) for t in SupervisionTag] == ["FS", "WS", "US"]
