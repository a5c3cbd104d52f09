from bench.hostspeed import MIN_SAMPLES, REFERENCE_NS, HostSpeed, kernel


def sampler(samples):
    speed = HostSpeed()
    speed.samples = list(samples)
    return speed


def test_factor_is_the_median_kernel_time_in_the_interval_over_the_reference():
    samples = [(t / 10, REFERENCE_NS) for t in range(10)]
    samples += [(1 + t / 10, 2 * REFERENCE_NS) for t in range(10)]
    assert sampler(samples).factor(0.0, 0.95) == 1.0
    assert sampler(samples).factor(1.0, 1.95) == 2.0
    # One outlier among the samples does not move a median.
    samples[3] = (0.3, 50 * REFERENCE_NS)
    assert sampler(samples).factor(0.0, 0.95) == 1.0


def test_a_short_interval_borrows_from_its_neighbourhood():
    samples = [(float(t), REFERENCE_NS) for t in range(MIN_SAMPLES)]
    samples.append((float(MIN_SAMPLES), 9 * REFERENCE_NS))
    assert sampler(samples).factor(MIN_SAMPLES - 0.5, MIN_SAMPLES + 0.5) == 1.0


def test_what_the_sampling_cost_is_known_per_interval():
    speed = sampler([(0.0, 1_000_000), (1.0, 2_000_000), (2.0, 4_000_000)])
    assert speed.spent_s(0.5, 2.5) == 0.006


def test_sampling_is_rate_limited():
    speed = HostSpeed()
    for _ in range(1000):
        speed.tick()
    assert 1 <= len(speed.samples) <= 3
    assert all(0 < ns < 1_000_000_000 for _, ns in speed.samples) and kernel() > 0
