//! Shortest round-trip float digits, spelled as `Display` spells them.
//!
//! The digits are Ryu's `d2d` (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018) on 128-bit products: of the decimals that read
//! back to the float, the ones with fewest digits, and of those the
//! closest. One rule differs from the paper's: on an exact tie between the
//! two closest, `Display` rounds up, not to even, and so does this
//! (`1658206780088562.25` is spelled `1658206780088562.3`). The layout is
//! `Display`'s too: no exponent, `0.000…` below one, zeros after the
//! digits up to the decimal point (`f64::MAX` is 309 digits long), and a
//! `-` on every negative float, `-0` included.

/// Bits kept of 5^i in [`POW5`] and of 2^k / 5^i in [`POW5_INV`].
const POW5_BITS: usize = 125;

/// `POW5[i]` is 5^i scaled to [`POW5_BITS`] bits: its top bits, or the
/// whole number shifted up. Index `i` reaches 325 at the smallest
/// subnormal.
static POW5: [u128; 326] = pow5_table();

/// `POW5_INV[q]` is ⌊2^j / 5^q⌋ + 1 with `j` = `pow5_bits(q)` − 1 +
/// [`POW5_BITS`], which scales it to [`POW5_BITS`] bits. Index `q` reaches
/// 292 at `f64::MAX`.
static POW5_INV: [u128; 293] = pow5_inv_table();

// ------------------------------------------------------------------ tables

/// 64-bit limbs, least significant first: 5^325 has 755 bits and the
/// inverse table divides 2^803.
const LIMBS: usize = 13;
type Big = [u64; LIMBS];

/// The exponent of the power of two the inverse table divides: its last
/// entry's `j`.
const INV_TOP: usize = pow5_bits(POW5_INV.len() - 1) - 1 + POW5_BITS;
const _: () = assert!(INV_TOP < 64 * LIMBS && pow5_bits(POW5.len() - 1) <= 64 * LIMBS);

/// The number of bits of 5^e, for `e` up to 3528.
const fn pow5_bits(e: usize) -> usize {
    ((e * 1217359) >> 19) + 1
}

/// Bits `from..from + 128` of `x`.
const fn bits_at(x: &Big, from: usize) -> u128 {
    let (limb, shift) = (from / 64, (from % 64) as i32);
    let mut out = 0;
    let mut k = 0;
    while k < 3 && limb + k < LIMBS {
        let at = 64 * k as i32 - shift;
        let w = x[limb + k] as u128;
        if at < 0 {
            out |= w >> -at;
        } else if at < 128 {
            out |= w << at;
        }
        k += 1;
    }
    out
}

const fn pow5_table() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = pow5_bits(i);
        table[i] = if bits >= POW5_BITS {
            bits_at(&pow, bits - POW5_BITS)
        } else {
            bits_at(&pow, 0) << (POW5_BITS - bits)
        };
        // pow *= 5
        let mut carry = 0;
        let mut l = 0;
        while l < LIMBS {
            let p = pow[l] as u128 * 5 + carry;
            pow[l] = p as u64;
            carry = p >> 64;
            l += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 293] {
    let mut table = [0; 293];
    // ⌊2^INV_TOP / 5^i⌋, whose bits from INV_TOP − j on are ⌊2^j / 5^i⌋.
    let mut quotient: Big = [0; LIMBS];
    quotient[INV_TOP / 64] = 1 << (INV_TOP % 64);
    let mut i = 0;
    while i < table.len() {
        let j = pow5_bits(i) - 1 + POW5_BITS;
        table[i] = bits_at(&quotient, INV_TOP - j) + 1;
        // quotient /= 5, which keeps it the floor: ⌊⌊x/a⌋/b⌋ = ⌊x/ab⌋.
        let mut rem = 0;
        let mut l = LIMBS;
        while l > 0 {
            l -= 1;
            let d = (rem << 64) | quotient[l] as u128;
            quotient[l] = (d / 5) as u64;
            rem = d % 5;
        }
        i += 1;
    }
    table
}

// ------------------------------------------------------------------ digits

/// ⌊log10 2^e⌋, for `e` up to 1650.
fn log10_pow2(e: i32) -> i32 {
    (e * 78913) >> 18
}

/// ⌊log10 5^e⌋, for `e` up to 2620.
fn log10_pow5(e: i32) -> i32 {
    (e * 732923) >> 20
}

/// ⌊m · mul / 2^j⌋ for a 125-bit `mul`, `j` ≥ 64.
#[inline]
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let (lo, hi) = (mul as u64, (mul >> 64) as u64);
    let low = (u128::from(m) * u128::from(lo)) >> 64;
    ((low + u128::from(m) * u128::from(hi)) >> (j - 64)) as u64
}

fn multiple_of_pow5(mut value: u64, p: i32) -> bool {
    let mut factor = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        factor += 1;
    }
    factor >= p
}

/// The float with IEEE mantissa field `mantissa` and exponent field
/// `exponent` (not both zero) as `digits · 10^e10`: Ryu's `d2d`, a tie
/// rounded up.
fn shortest(mantissa: u64, exponent: u32) -> (u64, i32) {
    let (e2, m2) = match exponent {
        0 => (1 - 1023 - 52 - 2, mantissa),
        _ => (exponent as i32 - 1023 - 52 - 2, mantissa | 1 << 52),
    };
    // The float is mv · 2^e2. The reals that read back to it lie between
    // the neighbours' midpoints mm · 2^e2 and mp · 2^e2, those included
    // when the mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // The three scaled by 10^−e10 and floored: vr, vp, vm. An included
    // lower bound whose floor dropped only zeros is itself a candidate;
    // textbook Ryu also tracks whether vr's floor did, to round a tie to
    // even, which `Display` does not.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let k = (POW5_BITS + pow5_bits(q as usize)) as i32 - 1;
        let j = -e2 + q + k;
        let mul = POW5_INV[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // Only one of mp, mv and mm can be a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let k = pow5_bits(i as usize) as i32 - POW5_BITS as i32;
        let j = q - k;
        let mul = POW5[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // For q <= 1 a floor drops only zeros where the number has q
        // trailing zero bits: mp always has one, mm iff mm_shift is 1.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal. That is
    // monotone in the digits dropped, so they come off four, two and one at
    // a time; only the last one dropped decides the rounding, and an exact
    // tie (a 5, then only zeros) rounds up. The scales are literals, so
    // every division is a multiplication.
    let mut removed = 0;
    let mut round_up = false;
    macro_rules! drop_while {
        ($more:expr, $scale:literal, $digits:literal) => {
            while $more {
                vm_is_trailing_zeros &= vm % $scale == 0;
                round_up = vr % $scale >= $scale / 2;
                (vr, vp, vm) = (vr / $scale, vp / $scale, vm / $scale);
                removed += $digits;
            }
        };
    }
    drop_while!(vp / 10_000 > vm / 10_000, 10_000, 4);
    drop_while!(vp / 100 > vm / 100, 100, 2);
    drop_while!(vp / 10 > vm / 10, 10, 1);
    if vm_is_trailing_zeros {
        // The lower bound itself is shorter still.
        drop_while!(vm % 10 == 0, 10, 1);
    }
    let output = vr + u64::from((vr == vm && !vm_is_trailing_zeros) || round_up);
    (output, e10 + removed)
}

// ------------------------------------------------------------------ layout

/// Appends finite `f` to `out` as `Display` spells it, and says whether
/// that wrote a `.`.
pub(crate) fn write(out: &mut String, f: f64) -> bool {
    let bits = f.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = (bits >> 52) as u32 & 0x7ff;
    if mantissa == 0 && exponent == 0 {
        out.push('0');
        return false;
    }
    let (digits, e10) = shortest(mantissa, exponent);
    let len = digits.ilog10() as usize + 1;
    // Digits before the decimal point; none or fewer than none below one.
    let point = len as i32 + e10;
    // Every spelling a run's times and latencies take fits here.
    let mut buf = [b'0'; 32];
    if point <= 0 {
        let zeros = point.unsigned_abs() as usize;
        let end = 2 + zeros + len;
        if end <= buf.len() {
            buf[1] = b'.';
            put_digits(&mut buf[end - len..end], digits);
            push(out, &buf[..end]);
        } else {
            out.push_str("0.");
            zeros_to(out, zeros);
            put_digits(&mut buf[..len], digits);
            push(out, &buf[..len]);
        }
        true
    } else if (point as usize) < len {
        let point = point as usize;
        put_digits(&mut buf[1..=len], digits);
        buf.copy_within(1..=point, 0);
        buf[point] = b'.';
        push(out, &buf[..=len]);
        true
    } else {
        let point = point as usize;
        put_digits(&mut buf[..len], digits);
        if point <= buf.len() {
            push(out, &buf[..point]);
        } else {
            push(out, &buf[..len]);
            zeros_to(out, point - len);
        }
        false
    }
}

/// Two ASCII digits for each of 00 to 99.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `v` into `to`, which is exactly as long as `v` has digits: eight
/// at a time from the right, each eight as four pairs computed apart, then
/// the rest a pair at a time.
#[inline]
fn put_digits(to: &mut [u8], mut v: u64) {
    let mut at = to.len();
    while at > 8 {
        let eight = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (high, low) = (eight / 10_000, eight % 10_000);
        for (k, n) in [high / 100, high % 100, low / 100, low % 100]
            .into_iter()
            .enumerate()
        {
            to[at - 8 + 2 * k..at - 6 + 2 * k].copy_from_slice(&pair(n));
        }
        at -= 8;
    }
    let mut v = v as u32;
    while at >= 2 {
        to[at - 2..at].copy_from_slice(&pair(v % 100));
        v /= 100;
        at -= 2;
    }
    if at == 1 {
        to[0] = b'0' + v as u8;
    }
}

/// The two ASCII digits of `n` < 100.
#[inline]
fn pair(n: u32) -> [u8; 2] {
    let at = 2 * n as usize;
    [PAIRS[at], PAIRS[at + 1]]
}

#[inline]
fn push(out: &mut String, ascii: &[u8]) {
    out.push_str(std::str::from_utf8(ascii).expect("ASCII digits"));
}

#[cold]
fn zeros_to(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n('0', n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// `f` as the writer spells it, checking what it says about the `.`.
    fn written(f: f64) -> String {
        let mut out = String::new();
        let dot = write(&mut out, f);
        assert_eq!(dot, out.contains('.'), "{out}");
        out
    }

    fn assert_matches_display(f: f64) {
        assert_eq!(written(f), f.to_string(), "bits {:#018x}", f.to_bits());
    }

    /// SplitMix64: a seeded stream of bit patterns.
    fn patterns(seed: u64) -> impl Iterator<Item = u64> {
        let mut s = seed;
        std::iter::repeat_with(move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    /// Finite floats from `n` random bit patterns, and as many of the
    /// shapes a run writes: integer work over a rate, and completion times
    /// summed op by op.
    fn random_floats(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let bits = patterns(seed)
            .map(f64::from_bits)
            .filter(|f| f.is_finite())
            .take(n);
        let latency = |b: u64| (b % 100_000) as f64 / 1e6;
        let latencies = patterns(seed ^ 1).take(n).map(latency);
        let t_ends = patterns(seed ^ 1).take(n).map(latency).scan(0.0, |t, l| {
            *t += l;
            Some(*t)
        });
        bits.chain(latencies).chain(t_ends)
    }

    /// The floats the shortest-digits algorithm has special cases for.
    fn edges() -> Vec<f64> {
        let mut edges = vec![
            0.0,
            -0.0,
            1658206780088562.0 + 0.25,
            233115890514796.0 + 0.125,
            5e-324,
            1e-323,
            f64::MIN_POSITIVE,
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            9007199254740991.0,
            9007199254740992.0,
            9007199254740994.0,
            0.1,
            0.3,
            1.0 / 3.0,
            f64::from(0.1f32),
            f64::from(f32::MAX),
            f64::from(f32::MIN_POSITIVE),
            37.0 / 1e6,
            1.0,
            1.5,
            123456.0,
            1e16 - 2.0,
            1e17,
            2f64.powi(60),
        ];
        for k in -323..=308 {
            edges.push(format!("1e{k}").parse().unwrap());
            edges.push(format!("5e{k}").parse().unwrap());
        }
        edges.retain(|f| f.is_finite());
        let near: Vec<f64> = edges
            .iter()
            .filter(|f| **f > 0.0 && **f < f64::MAX)
            .flat_map(|f| {
                [
                    f64::from_bits(f.to_bits() - 1),
                    f64::from_bits(f.to_bits() + 1),
                ]
            })
            .collect();
        edges.extend(near);
        edges
    }

    #[test]
    fn float_writer_matches_display() {
        for f in edges() {
            assert_matches_display(f);
            assert_matches_display(-f);
        }
        for f in random_floats(0x5eed, 100_000) {
            assert_matches_display(f);
        }
    }

    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release"]
    fn float_writer_matches_display_long() {
        for e in -1074..=1023 {
            assert_matches_display(2f64.powi(e));
        }
        for k in -323..=308 {
            assert_matches_display(format!("1e{k}").parse().unwrap());
        }
        for f in random_floats(0x1_0000_0000, 10_000_000) {
            assert_matches_display(f);
        }
    }

    // ------------------------------------------- the tables, re-derived

    /// Base-2^32 digits, least significant first.
    fn big(x: u128) -> Vec<u32> {
        (0..4).map(|k| (x >> (32 * k)) as u32).collect()
    }

    fn mul(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = u64::from(x) * u64::from(y) + u64::from(out[i + j]) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + b.len()] = carry as u32;
        }
        out
    }

    fn bit_len(a: &[u32]) -> usize {
        a.iter()
            .rposition(|&d| d != 0)
            .map_or(0, |i| 32 * i + 32 - a[i].leading_zeros() as usize)
    }

    fn cmp(a: &[u32], b: &[u32]) -> Ordering {
        let len = |x: &[u32]| x.iter().rposition(|&d| d != 0).map_or(0, |i| i + 1);
        let (a, b) = (&a[..len(a)], &b[..len(b)]);
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }

    fn pow2(j: usize) -> Vec<u32> {
        let mut out = vec![0u32; j / 32 + 1];
        out[j / 32] = 1 << (j % 32);
        out
    }

    /// `a` shifted right by `s` bits, the low 128 kept.
    fn shr(a: &[u32], s: usize) -> u128 {
        (0..128)
            .filter(|k| {
                let bit = s + k;
                a.get(bit / 32).is_some_and(|d| d >> (bit % 32) & 1 == 1)
            })
            .fold(0, |acc, k| acc | 1 << k)
    }

    /// Each entry against 5^i computed exactly: `POW5[i]` is its top 125
    /// bits, and `POW5_INV[i]` − 1 is the unique q with q · 5^i ≤ 2^j <
    /// (q + 1) · 5^i.
    #[test]
    fn pow5_tables_match_exact_arithmetic() {
        let mut pow = vec![1u32];
        for i in 0..POW5.len().max(POW5_INV.len()) {
            let bits = bit_len(&pow);
            assert_eq!(pow5_bits(i), bits, "bits of 5^{i}");
            if let Some(&entry) = POW5.get(i) {
                let want = match bits.checked_sub(POW5_BITS) {
                    Some(s) => shr(&pow, s),
                    None => shr(&pow, 0) << (POW5_BITS - bits),
                };
                assert_eq!(entry, want, "POW5[{i}]");
            }
            if let Some(&entry) = POW5_INV.get(i) {
                let two_j = pow2(bits - 1 + POW5_BITS);
                assert_ne!(cmp(&mul(&big(entry - 1), &pow), &two_j), Ordering::Greater);
                assert_eq!(cmp(&mul(&big(entry), &pow), &two_j), Ordering::Greater);
            }
            pow = mul(&pow, &[5]);
        }
    }
}
