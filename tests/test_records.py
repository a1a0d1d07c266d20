"""Records: the field semantics fraclie's record classes rely on."""
import pytest

from fraclie.records import FrozenRecordError, record


@record(frozen=True)
class Point:
    x: int
    y: int = 0
    tags: tuple = ()


@record
class Bag:
    name: str
    items: list

    def __post_init__(self):
        self.size = len(self.items)


class TestRecord:
    def test_positional_keyword_and_default_arguments(self):
        assert Point(1, 2, ("a",)).tags == ("a",)
        assert Point(1, y=2) == Point(1, 2, ())
        assert Point(x=3).y == 0
        assert Point.y == 0

    def test_argument_errors(self):
        with pytest.raises(TypeError, match="missing required argument: 'x'"):
            Point()
        with pytest.raises(TypeError, match="unexpected keyword argument 'z'"):
            Point(1, z=2)
        with pytest.raises(TypeError, match="multiple values for argument 'x'"):
            Point(1, x=2)
        with pytest.raises(TypeError, match="positional arguments"):
            Point(1, 2, (), 4)

    def test_field_without_default_after_default_is_rejected(self):
        with pytest.raises(TypeError, match="without a default"):
            @record
            class Bad:
                a: int = 0
                b: int

    def test_frozen_record_equality_hash_and_assignment(self):
        p = Point(1, 2)
        assert p == Point(1, 2) and p != Point(2, 1)
        assert hash(p) == hash(Point(1, 2))
        assert len({p, Point(1, 2), Point(1, 3)}) == 2
        assert p.__eq__((1, 2, ())) is NotImplemented
        with pytest.raises(FrozenRecordError):
            p.x = 5
        with pytest.raises(AttributeError):
            del p.y

    def test_mutable_record_post_init_and_no_hash(self):
        a, b = Bag("a", []), Bag("a", [])
        assert a == b
        a.items.append(1)
        assert a != b and Bag("c", [1, 2]).size == 2
        with pytest.raises(TypeError):
            hash(a)

    def test_repr(self):
        assert repr(Point(1, tags=("a",))) == "Point(x=1, y=0, tags=('a',))"
