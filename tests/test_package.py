"""The package as a whole: its public names and the size of its modules."""

import pathlib
import tokenize

import pytest

import foldrate
import foldrate.engine


def test_every_public_name_resolves():
    # names load lazily from bounds, cache and trees (foldrate.__getattr__)
    for name in foldrate.__all__:
        assert getattr(foldrate, name) is not None, name
    namespace = {}
    exec("from foldrate import *", namespace)
    assert set(foldrate.__all__) <= set(namespace)
    assert set(foldrate._LAZY) <= set(foldrate.__all__)
    assert set(foldrate.__all__) <= set(dir(foldrate))
    assert foldrate.load_cache is foldrate.engine.load_cache
    assert foldrate.save_cache is foldrate.engine.save_cache
    with pytest.raises(AttributeError):
        foldrate.no_such_name
    with pytest.raises(AttributeError):
        foldrate.engine.no_such_name


def test_every_module_parses_to_fewer_than_4096_tokens():
    # CPython 3.11's parser doubles its token array past 4,096 tokens,
    # which adds about 0.25 MB to the peak RSS of a run that compiles the
    # module.  COMMENT and NL tokens never reach the parser.
    for path in sorted(pathlib.Path(foldrate.__file__).parent.glob("*.py")):
        with path.open(encoding="utf-8") as fh:
            count = sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                        for tok in tokenize.generate_tokens(fh.readline))
        assert count < 4096, (path.name, count)
