"""Tests for the content-addressed artifact store."""

from repro.campaign.artifacts import ArtifactStore, content_key


class TestContentKey:
    def test_deterministic(self):
        assert content_key("a", 1, b"x") == content_key("a", 1, b"x")

    def test_length_prefixed_parts_cannot_collide(self):
        assert content_key("ab", "c") != content_key("a", "bc")

    def test_part_order_matters(self):
        assert content_key("a", "b") != content_key("b", "a")


class TestArtifactStore:
    def test_json_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = content_key("test-json")
        assert store.get_json(key) is None
        store.put_json(key, {"misses": 42, "nested": {"a": [1, 2]}})
        assert store.has_json(key)
        assert store.get_json(key) == {"misses": 42, "nested": {"a": [1, 2]}}

    def test_sharded_layout(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = content_key("shard-me")
        store.put_json(key, {})
        assert store.path_for(key, ".json").parent.name == key[:2]

    def test_keys_and_len(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        keys = {content_key("k", i) for i in range(5)}
        for k in keys:
            store.put_json(k, {"k": k})
        assert set(store.keys()) == keys
        assert len(store) == 5

    def test_size_bytes_grows(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.size_bytes() == 0
        store.put_json(content_key("x"), {"payload": "y" * 100})
        assert store.size_bytes() > 0

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_json(content_key("x"), {"a": 1})
        store.put_json(content_key("x"), {"a": 2})
        leftovers = [p for p in store.root.rglob("*.tmp*")]
        assert leftovers == []
        assert store.get_json(content_key("x")) == {"a": 2}
