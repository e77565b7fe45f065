"""Fixture: `dimension-mismatch` — a cycle count added to a bit-cycle
accumulator, and an AVF that drops its ``bits × cycles`` normalization."""


def close_interval(ace_bit_cycles, warmup_cycles, capacity_bits):
    total_bit_cycles = ace_bit_cycles + warmup_cycles  # fires: bit-cycles + cycles
    interval_avf = ace_bit_cycles / capacity_bits  # fires: cycles, not a fraction
    return total_bit_cycles, interval_avf
