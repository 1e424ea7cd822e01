//! The one number rule of result serializations, rendered into a stack
//! buffer.
//!
//! Integral values below 1e15 print as integers (`-0.0` as `0`). Every
//! other finite value prints as the shortest decimal that reads back to the
//! same `f64`, laid out positionally exactly as `{}` formats an `f64`: no
//! exponent, `0.000…` below one, trailing zeros above the digits. `NaN`,
//! `inf` and `-inf` print as `{}` prints them.
//!
//! The digits come from Ryu's `d2s` loop (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018) with one change: when the value lies exactly
//! halfway between the two closest shortest candidates, the larger digit
//! string wins, as core's Grisu/Dragon shortest mode breaks that tie. Ryu
//! itself rounds such a tie to an even last digit (bits
//! `0x43179085685d83c9`, 1658206780088562.25: `{}` prints `…62.3`, the even
//! rule `…62.2`).
//!
//! Ryu's two power-of-5 tables are computed once per process, at first use,
//! with exact integer arithmetic over a few machine words.

use std::sync::OnceLock;

/// Longest rendering: a sign, `0.` and at most 324 digit places after the
/// point (Ryu's smallest decimal exponent is −324, at `5e-324`); an integer
/// part has at most 309 digits.
const MAX_LEN: usize = 1 + 2 + 324;

/// A number rendered by the rule above, held on the stack so the caller
/// can write it again without rendering it again.
pub(crate) struct NumberText {
    buf: [u8; MAX_LEN],
    len: usize,
}

impl NumberText {
    /// An empty rendering.
    pub(crate) fn new() -> NumberText {
        NumberText {
            buf: [0; MAX_LEN],
            len: 0,
        }
    }

    /// Renders `n` over the previous rendering and returns the text.
    pub(crate) fn render(&mut self, n: f64) -> &str {
        self.len = 0;
        if n.fract() == 0.0 && n.abs() < 1e15 {
            if n < 0.0 {
                self.push(b'-');
            }
            // integral and below 1e15: exactly representable as a u64
            self.push_digits(n.abs() as u64);
        } else if n.is_nan() {
            self.push_str(b"NaN");
        } else if n.is_infinite() {
            self.push_str(if n < 0.0 { b"-inf" } else { b"inf" });
        } else {
            if n < 0.0 {
                self.push(b'-');
            }
            let (digits, exponent) = shortest(n.abs().to_bits());
            self.push_positional(digits, exponent);
        }
        self.as_str()
    }

    /// The last rendering.
    pub(crate) fn as_str(&self) -> &str {
        // only ASCII is ever pushed
        std::str::from_utf8(&self.buf[..self.len]).unwrap_or_default()
    }

    fn push(&mut self, byte: u8) {
        self.buf[self.len] = byte;
        self.len += 1;
    }

    fn push_str(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn push_zeros(&mut self, count: usize) {
        self.buf[self.len..self.len + count].fill(b'0');
        self.len += count;
    }

    fn push_digits(&mut self, value: u64) {
        self.push_decimal(value, decimal_length(value));
    }

    /// Lays out `digits × 10^exponent` as `{}` does: the point before,
    /// inside or (implicitly) after the digit string.
    fn push_positional(&mut self, digits: u64, exponent: i32) {
        let length = decimal_length(digits);
        // the number is 0.<digits> × 10^point
        let point = length as i32 + exponent;
        if point <= 0 {
            self.push_str(b"0.");
            self.push_zeros(point.unsigned_abs() as usize);
            self.push_decimal(digits, length);
        } else if (point as usize) < length {
            // all digits, then the fraction moves one place for the point
            let point = self.len + point as usize;
            self.push_decimal(digits, length);
            self.buf.copy_within(point..self.len, point + 1);
            self.buf[point] = b'.';
            self.len += 1;
        } else {
            self.push_decimal(digits, length);
            self.push_zeros(point as usize - length);
        }
    }

    /// Pushes the `length` decimal digits of `value`, filled from the right
    /// two at a time; eight-digit chunks are split off first so the chunks'
    /// arithmetic is 32-bit and independent.
    fn push_decimal(&mut self, mut value: u64, length: usize) {
        let digits = &mut self.buf[self.len..self.len + length];
        let mut end = length;
        let mut put_pair = |end: &mut usize, pair: u32| {
            let pair = pair as usize * 2;
            digits[*end - 2..*end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            *end -= 2;
        };
        while value >= 100_000_000 {
            let mut chunk = (value % 100_000_000) as u32;
            value /= 100_000_000;
            for _ in 0..4 {
                put_pair(&mut end, chunk % 100);
                chunk /= 100;
            }
        }
        let mut rest = value as u32;
        while rest >= 100 {
            put_pair(&mut end, rest % 100);
            rest /= 100;
        }
        if rest >= 10 {
            put_pair(&mut end, rest);
        } else {
            digits[end - 1] = b'0' + rest as u8;
        }
        self.len += length;
    }
}

/// `"00"`, `"01"`, …, `"99"` back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The number of decimal digits of `value` (1 for 0).
fn decimal_length(value: u64) -> usize {
    value.checked_ilog10().map_or(1, |log| log as usize + 1)
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Ryu's `DOUBLE_POW5_INV_BITCOUNT` and `DOUBLE_POW5_BITCOUNT`: every table
/// entry is a 125-bit approximation of its power of 5.
const POW5_BITS: u32 = 125;
/// Ryu's table sizes; `shortest` reads entries up to `q` = 290 (`e2` = 969)
/// and `i` = 325 (`e2` = −1076).
const POW5_INV_ENTRIES: usize = 342;
const POW5_ENTRIES: usize = 326;

/// Ryu's `DOUBLE_POW5_INV_SPLIT` and `DOUBLE_POW5_SPLIT` as `u128`s.
struct Tables {
    /// `⌊2^(len(5^i) − 1 + 125) / 5^i⌋ + 1`.
    pow5_inv: Vec<u128>,
    /// `5^i` shifted to exactly 125 bits (truncated when longer).
    pow5: Vec<u128>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// Builds both tables with exact arithmetic: `5^i` by repeated
/// multiplication, `⌊2^1023 / 5^i⌋` by repeated floor division (which is
/// exact: `⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋`), each read off at the right shift.
fn build_tables() -> Tables {
    // 2^1023 in 16 little-endian limbs; 5^341 needs 792 bits, 13 limbs
    const TOP: u32 = 1023;
    let mut inverse = [0u64; 16];
    inverse[15] = 1 << 63;
    let mut power = [0u64; 13];
    power[0] = 1;
    let mut pow5_inv = Vec::with_capacity(POW5_INV_ENTRIES);
    let mut pow5 = Vec::with_capacity(POW5_ENTRIES);
    for i in 0..POW5_INV_ENTRIES {
        let len = bit_length(&power);
        // ⌊2^1023 / 5^i⌋ >> (1023 − j) = ⌊2^j / 5^i⌋, j = len − 1 + 125
        pow5_inv.push(shifted_right(&inverse, TOP - (len - 1 + POW5_BITS)) + 1);
        if i < POW5_ENTRIES {
            pow5.push(match len.checked_sub(POW5_BITS) {
                Some(excess) => shifted_right(&power, excess),
                None => shifted_right(&power, 0) << (POW5_BITS - len),
            });
        }
        let mut carry = 0u128;
        for limb in power.iter_mut() {
            let product = u128::from(*limb) * 5 + carry;
            *limb = product as u64;
            carry = product >> 64;
        }
        let mut remainder = 0u128;
        for limb in inverse.iter_mut().rev() {
            let dividend = (remainder << 64) | u128::from(*limb);
            *limb = (dividend / 5) as u64;
            remainder = dividend % 5;
        }
    }
    Tables { pow5_inv, pow5 }
}

fn bit_length(limbs: &[u64]) -> u32 {
    match limbs.iter().rposition(|&limb| limb != 0) {
        Some(top) => top as u32 * 64 + 64 - limbs[top].leading_zeros(),
        None => 0,
    }
}

/// The low 128 bits of `limbs >> shift`.
fn shifted_right(limbs: &[u64], shift: u32) -> u128 {
    let limb = |k: usize| limbs.get(k).copied().map_or(0, u128::from);
    let (skip, bits) = ((shift / 64) as usize, shift % 64);
    let low = (limb(skip) | limb(skip + 1) << 64) >> bits;
    match bits {
        0 => low,
        _ => low | limb(skip + 2) << (128 - bits),
    }
}

/// `⌊log10(2^e)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732923) >> 20
}

/// The bit length of `5^e` for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    (((e as u32) * 1217359) >> 19) as i32 + 1
}

/// Whether `5^p` divides the non-zero `value`.
fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m × mul / 2^j⌋` for a 55-bit `m`, dropping the product's low 64 bits
/// as Ryu's `mulShift64` does (`j ≥ 64`).
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `digits × 10^exponent` that reads back to the
/// positive finite `f64` with these bits, the closest one if several are
/// as short, the larger one on an exact tie.
fn shortest(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let biased = (bits >> MANTISSA_BITS) as i32;
    // two extra bits so the interval bounds are integers
    let (e2, m2) = match biased {
        0 => (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, mantissa),
        _ => (
            biased - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | mantissa,
        ),
    };
    // round-to-even reading: an even mantissa's interval includes its bounds
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // the lower bound is closer where the exponent steps down
    let mm_shift = u64::from(mantissa != 0 || biased <= 1);

    let tables = tables();
    let (mut vr, mut vp, mut vm, e10);
    // whether the lower bound itself is a shorter decimal, which the
    // interval holds when `accept_bounds`. No flag tracks whether `vr` is
    // exact: Ryu needs one only to round an exact tie to even, and `{}`
    // rounds every tie up
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS as i32 + pow5_bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = tables.pow5_inv[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mv + 2, mul, i);
        vm = mul_shift(mv - 1 - mm_shift, mul, i);
        // at most one of mv, mp and mm is a multiple of 5
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS as i32;
        let j = q as i32 - k;
        let mul = tables.pow5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mm = mv − 1 − mm_shift has a trailing zero bit iff mm_shift;
            // mp = mv + 2 always has one
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // remove digits while the interval still holds a shorter number, two
    // at a time first (most values lose at least two)
    let mut removed = 0;
    let mut last_removed = 0;
    if vp / 100 > vm / 100 {
        vm_trailing_zeros &= vm % 100 == 0;
        last_removed = vr % 100 / 10;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_trailing_zeros {
        // the included lower bound ends in zeros: shorter still
        while vm % 10 == 0 {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // vr + 1 when vr is the excluded lower bound, or rounds up; a tie
    // (…5 then only zeros) rounds up
    let below_bounds = vr == vm && (!accept_bounds || !vm_trailing_zeros);
    let output = vr + u64::from(below_bounds || last_removed >= 5);
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(n: f64) -> String {
        NumberText::new().render(n).to_owned()
    }

    #[test]
    fn tables_hold_ryus_first_entries() {
        let t = tables();
        assert_eq!(t.pow5_inv.len(), POW5_INV_ENTRIES);
        assert_eq!(t.pow5.len(), POW5_ENTRIES);
        // d2s_full_table.h: DOUBLE_POW5_INV_SPLIT[0..2], DOUBLE_POW5_SPLIT[0..2]
        let split = |low: u64, high: u64| u128::from(high) << 64 | u128::from(low);
        assert_eq!(t.pow5_inv[0], split(1, 2305843009213693952));
        assert_eq!(
            t.pow5_inv[1],
            split(11068046444225730970, 1844674407370955161)
        );
        assert_eq!(t.pow5[0], split(0, 1152921504606846976));
        assert_eq!(t.pow5[1], split(0, 1441151880758558720));
        // every entry is a 125-bit number
        for entry in t.pow5_inv.iter().skip(1).chain(&t.pow5) {
            assert_eq!(128 - entry.leading_zeros(), POW5_BITS, "{entry:#x}");
        }
    }

    #[test]
    fn ties_round_up_as_std_does() {
        let tie = f64::from_bits(0x4317_9085_685d_83c9);
        assert_eq!(render(tie), "1658206780088562.3");
        assert_eq!(render(tie), format!("{tie}"));
    }

    #[test]
    fn layout_is_positional() {
        assert_eq!(render(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(render(1e15), "1000000000000000");
        assert_eq!(render(1e21), "1000000000000000000000");
        assert_eq!(render(-1.5e-7), "-0.00000015");
        assert_eq!(render(123.456), "123.456");
        assert_eq!(render(5e-324), format!("{}", 5e-324));
        assert_eq!(render(-f64::MAX), format!("{}", -f64::MAX));
        assert_eq!(render(-0.0), "0");
        assert_eq!(render(-42.0), "-42");
        assert_eq!(render(f64::NAN), "NaN");
        assert_eq!(render(-f64::NAN), "NaN");
        assert_eq!(render(f64::INFINITY), "inf");
        assert_eq!(render(f64::NEG_INFINITY), "-inf");
    }
}
