"""Named RNG sub-streams of one root seed."""

import numpy as np
import pytest

from flowcl.seeding import substream


def draws(*labels):
    return substream(7, *labels).integers(0, 2**62, size=4).tolist()


def test_same_labels_give_the_same_draws():
    assert draws("augment", 3, np.int64(16)) == draws("augment", 3, 16)


@pytest.mark.parametrize("label", [True, 1.0, None, b"augment", ("augment",)],
                         ids=["bool", "float", "none", "bytes", "tuple"])
def test_only_ints_and_strings_are_labels(label):
    with pytest.raises(TypeError, match="stream labels must be ints or strings"):
        substream(7, "augment", label)
