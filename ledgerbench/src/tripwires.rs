//! Exact values pinned in `tripwires.txt`: counts and digests that no
//! host-speed change may move. A run whose values differ is incorrect,
//! so a speed-up cannot come from simulating less.

const TEXT: &str = include_str!("../tripwires.txt");

/// The pinned value named `name`, as written.
pub fn raw(name: &str) -> &'static str {
    TEXT.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(char::is_whitespace)?;
            (k == name).then(|| v.trim())
        })
        .unwrap_or_else(|| panic!("tripwires.txt pins no {name}"))
}

/// A pinned integer.
pub fn u64(name: &str) -> u64 {
    let v = raw(name);
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("tripwires.txt: {name} is not an integer: {v}"))
}

/// A pinned float, compared bit for bit.
pub fn f64(name: &str) -> f64 {
    let v = raw(name);
    v.parse()
        .unwrap_or_else(|_| panic!("tripwires.txt: {name} is not a number: {v}"))
}

/// Compare a measured value with its pin; `Err` describes a mismatch.
pub fn check<T: PartialEq + std::fmt::Display>(name: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{name}: got {got}, pinned {want}"))
    }
}
