import pytest
from hypothesis import settings

settings.register_profile("pkg", deadline=None, max_examples=50)
settings.load_profile("pkg")


@pytest.fixture
def forward_points(monkeypatch):
    """``forward_points(cls)`` patches cls.forward to append the point of
    every call to the list it returns, the calls grad and hvp make too."""
    def install(cls):
        points = []
        forward = cls.forward

        def counted(self, w, shard):
            points.append(w)
            return forward(self, w, shard)

        monkeypatch.setattr(cls, "forward", counted)
        return points
    return install
