import pytest

from kincoop.config import DEFAULTS_BY_EXPERIMENT, POLICY_DEFAULTS, _typed


def leaves(tree: dict, path: str = "") -> dict:
    """Each leaf of a defaults tree by dotted path, lists as the tuples the walk returns."""
    out = {}
    for key, value in tree.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            out.update(leaves(value, where))
        else:
            out[where] = tuple(value) if isinstance(value, list) else value
    return out


def assert_same_leaves(typed: dict, want: dict) -> None:
    assert list(typed) == list(want)
    for path, value in want.items():
        # repr tells 1 from 1.0 and True from 1, which == does not
        assert repr(typed[path]) == repr(value), path


class TestSchemaCoverage:
    """Each config key's type comes from its default, so every default must
    be a value that the walk can type, and typing the defaults returns them."""

    @pytest.mark.parametrize("experiment", sorted(DEFAULTS_BY_EXPERIMENT))
    def test_defaults_type_as_themselves(self, experiment):
        defaults = DEFAULTS_BY_EXPERIMENT[experiment]
        assert_same_leaves(_typed(defaults, defaults), leaves(defaults))

    @pytest.mark.parametrize("kind", sorted(POLICY_DEFAULTS))
    def test_policy_defaults_type_as_themselves(self, kind):
        policy = {"kind": kind, **POLICY_DEFAULTS[kind]}
        assert_same_leaves(_typed(policy, {}, "policy"), leaves(policy, "policy"))

    def test_default_of_no_known_type_fails(self):
        with pytest.raises(KeyError):
            _typed({"name": "x"}, {"name": "x"})
