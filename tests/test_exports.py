"""The package's public names: each module declares its own, once."""

import quditnc
from quditnc import fock, measures, states, sweep, witnesses


def test_every_public_name_resolves_and_appears_once():
    assert len(set(quditnc.__all__)) == len(quditnc.__all__)
    for name in quditnc.__all__:
        assert getattr(quditnc, name) is not None, name


def test_the_package_exports_the_five_module_lists_in_order():
    modules = (fock, measures, states, sweep, witnesses)
    assert quditnc.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(quditnc, name) is getattr(module, name), name



def test_build_state_is_the_one_per_state_builder():
    assert "build_state" in quditnc.__all__
    # The family is build_state's argument, so no per-family ``*_qcs`` builder is exported.
    assert not [name for name in {*dir(quditnc), *dir(states)} if name.endswith("_qcs")]
