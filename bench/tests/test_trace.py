from bench.trace import Tracer


class Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_the_span_minus_its_children():
    clock = Clock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 5

    def inner_same_layer():
        clock.now += 2

    def middle():
        clock.now += 3
        leaf_t()
        clock.now += 1

    def outer():
        clock.now += 10
        inner_t()          # same layer: part of this span, counted once
        middle_t()
        clock.now += 4
        again_t()          # A -> B -> A: a span of its own under B

    def again():
        clock.now += 7

    leaf_t = tracer.wrap("C", "leaf", leaf)
    inner_t = tracer.wrap("A", "inner", inner_same_layer)
    again_inner = tracer.wrap("A", "again", again)
    middle_t = tracer.wrap("B", "middle", middle)
    again_t = tracer.wrap("B", "via", lambda: again_inner())
    outer_t = tracer.wrap("A", "outer", outer)

    outer_t()
    assert clock.now == 32
    assert tracer.self_ns == {"A": 10 + 2 + 4 + 7, "B": 3 + 1, "C": 5}
    assert sum(tracer.self_ns.values()) == clock.now
    # outer (with inner folded in) and the re-entry through B.
    assert tracer.calls == {"A": 2, "B": 2, "C": 1}
    by_name = {name: (span, parent) for span, parent, _, name, _, _ in tracer.spans}
    assert by_name["outer"][1] == 0
    assert by_name["middle"][1] == by_name["outer"][0]
    assert by_name["leaf"][1] == by_name["middle"][0]
    assert by_name["again"][1] == by_name["via"][0]


def test_an_exception_still_closes_the_span():
    clock = Clock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 3
        raise KeyError("x")

    wrapped = tracer.wrap("A", "boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    assert tracer.self_ns["A"] == 3 and tracer.calls["A"] == 1
    assert tracer._stack == []
