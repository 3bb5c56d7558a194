//! Independent references: the Stanford programs and the `views` query
//! re-implemented in plain Rust, so expected checksums never come from the
//! VM under test. Each function mirrors its TL source in
//! `crates/lang/src/stanford.rs` (or the `shop` module for `views`)
//! statement by statement, including evaluation order of floating-point
//! expressions.

/// The TL programs' linear congruential generator.
fn lcg(x: i64) -> i64 {
    (x * 1_103_515_245 + 12_345) % 2_147_483_648
}

/// fib(n), doubly recursive.
pub fn fib(n: i64) -> i64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Primes below `n` by the sieve.
pub fn sieve(n: i64) -> i64 {
    let n = n as usize;
    let mut flags = vec![true; n];
    let mut count = 0;
    for i in 2..n {
        if flags[i] {
            count += 1;
            let mut j = i + i;
            while j < n {
                flags[j] = false;
                j += i;
            }
        }
    }
    count
}

/// Moves made by the Towers of Hanoi recursion.
pub fn towers(n: i64) -> i64 {
    fn hanoi(n: i64, moves: &mut i64) {
        if n > 0 {
            hanoi(n - 1, moves);
            *moves += 1;
            hanoi(n - 1, moves);
        }
    }
    let mut moves = 0;
    hanoi(n, &mut moves);
    moves
}

fn random_array(n: usize, modulus: i64) -> Vec<i64> {
    let mut seed = 74_755;
    (0..n)
        .map(|_| {
            seed = lcg(seed);
            seed % modulus
        })
        .collect()
}

/// Bubble sort checksum: first + last * 1000.
pub fn bubble(n: i64) -> i64 {
    let n = n as usize;
    let mut a = random_array(n, 1000);
    for i in 0..n.saturating_sub(1) {
        for j in 0..n - 1 - i {
            if a[j] > a[j + 1] {
                a.swap(j, j + 1);
            }
        }
    }
    a[0] + a[n - 1] * 1000
}

/// Quicksort checksum: first + middle + last (Hoare partition, as in TL).
pub fn quick(n: i64) -> i64 {
    fn qsort(a: &mut [i64], lo: i64, hi: i64) {
        if lo < hi {
            let pivot = a[((lo + hi) / 2) as usize];
            let (mut i, mut j) = (lo, hi);
            while i <= j {
                while a[i as usize] < pivot {
                    i += 1;
                }
                while pivot < a[j as usize] {
                    j -= 1;
                }
                if i <= j {
                    a.swap(i as usize, j as usize);
                    i += 1;
                    j -= 1;
                }
            }
            qsort(a, lo, j);
            qsort(a, i, hi);
        }
    }
    let mut a = random_array(n as usize, 100_000);
    qsort(&mut a, 0, n - 1);
    let n = n as usize;
    a[0] + a[n / 2] + a[n - 1]
}

/// N-queens solution count.
pub fn queens(n: i64) -> i64 {
    fn solve(n: usize, row: usize, cols: &mut [bool], d1: &mut [bool], d2: &mut [bool]) -> i64 {
        if row == n {
            return 1;
        }
        let mut count = 0;
        for c in 0..n {
            let k = row + n - 1 - c;
            if !cols[c] && !d1[row + c] && !d2[k] {
                cols[c] = true;
                d1[row + c] = true;
                d2[k] = true;
                count += solve(n, row + 1, cols, d1, d2);
                cols[c] = false;
                d1[row + c] = false;
                d2[k] = false;
            }
        }
        count
    }
    let n = n as usize;
    solve(
        n,
        0,
        &mut vec![false; n],
        &mut vec![false; 2 * n],
        &mut vec![false; 2 * n],
    )
}

/// Integer matrix product checksum: c[0] + c[n*n - 1].
pub fn intmm(n: i64) -> i64 {
    let n = n as usize;
    let a: Vec<i64> = (0..n * n).map(|i| i as i64 % 7 + 1).collect();
    let b: Vec<i64> = (0..n * n).map(|i| i as i64 % 11 + 1).collect();
    let mut c = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            c[i * n + j] = (0..n).map(|q| a[i * n + q] * b[q * n + j]).sum();
        }
    }
    c[0] + c[n * n - 1]
}

/// Leaf visits of the Stanford `Perm` kernel.
pub fn perm(n: i64) -> i64 {
    fn permute(a: &mut [i64], n: usize, cnt: &mut i64) {
        if n == 0 {
            *cnt += 1;
        } else {
            permute(a, n - 1, cnt);
            for i in 0..n.saturating_sub(1) {
                a.swap(n - 1, i);
                permute(a, n - 1, cnt);
                a.swap(n - 1, i);
            }
        }
    }
    let mut a: Vec<i64> = (0..n).collect();
    let mut cnt = 0;
    permute(&mut a, n as usize, &mut cnt);
    cnt
}

/// Node count of the binary tree built from `n` pseudo-random inserts.
pub fn tree(n: i64) -> i64 {
    // Arena nodes: (value, left, right).
    let mut nodes: Vec<(i64, Option<usize>, Option<usize>)> = Vec::new();
    let mut root: Option<usize> = None;
    let mut seed = 74_755;
    for _ in 1..=n {
        seed = lcg(seed);
        let v = seed % 10_000;
        let fresh = nodes.len();
        nodes.push((v, None, None));
        let Some(mut cur) = root else {
            root = Some(fresh);
            continue;
        };
        loop {
            let (cv, l, r) = nodes[cur];
            let next = if v < cv { l } else { r };
            match next {
                Some(nx) => cur = nx,
                None => {
                    if v < cv {
                        nodes[cur].1 = Some(fresh);
                    } else {
                        nodes[cur].2 = Some(fresh);
                    }
                    break;
                }
            }
        }
    }
    fn count(nodes: &[(i64, Option<usize>, Option<usize>)], at: Option<usize>) -> i64 {
        at.map_or(0, |i| {
            1 + count(nodes, nodes[i].1) + count(nodes, nodes[i].2)
        })
    }
    count(&nodes, root)
}

/// Mandelbrot membership count on an n×n grid (16 iterations).
pub fn mandel(n: i64) -> i64 {
    let mut count = 0;
    for py in 0..n {
        for px in 0..n {
            let cx = px as f64 * 3.5 / n as f64 - 2.5;
            let cy = py as f64 * 2.0 / n as f64 - 1.0;
            let (mut x, mut y, mut i) = (0.0f64, 0.0f64, 0);
            while x * x + y * y <= 4.0 && i < 16 {
                let t = x * x - y * y + cx;
                y = 2.0 * x * y + cy;
                x = t;
                i += 1;
            }
            if i == 16 {
                count += 1;
            }
        }
    }
    count
}

/// Rows of `shop.cheap_discounted` over `shop.setup(rows)`: tuples
/// `(i, i*7 % 200, i % 3 == 0)` kept when discounted and cheaper than 50.
pub fn views(rows: i64) -> i64 {
    (0..rows).filter(|i| i % 3 == 0 && i * 7 % 200 < 50).count() as i64
}

/// The reference checksum of program `name` at size `n`.
pub fn expected(name: &str, n: i64) -> i64 {
    match name {
        "fib" => fib(n),
        "sieve" => sieve(n),
        "towers" => towers(n),
        "bubble" => bubble(n),
        "quick" => quick(n),
        "queens" => queens(n),
        "intmm" => intmm(n),
        "perm" => perm(n),
        "tree" => tree(n),
        "mandel" => mandel(n),
        "views" => views(n),
        other => panic!("no reference for {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        assert_eq!(fib(15), 610);
        assert_eq!(fib(25), 75_025);
        assert_eq!(sieve(100), 25);
        assert_eq!(towers(10), 1023);
        assert_eq!(queens(6), 4);
        assert_eq!(queens(8), 92);
        assert_eq!(perm(5), 120);
        assert_eq!(perm(8), 40_320);
        assert_eq!(tree(60), 60);
        assert_eq!(views(200_000), 16_665);
    }
}
