//! Helpers shared by the integration tests that compare traces of real
//! (wall-clock) native runs.

/// Zero every digit run that follows a wall-clock-valued position:
/// `"start_us":`, `"end_us":`, `"t_us":` and sample times (digits right
/// after `[`). Attr values, counter values and record structure pass
/// through untouched, so everything deterministic stays byte-compared.
pub fn normalize_trace(trace: &str) -> String {
    let bytes = trace.as_bytes();
    let mut out = String::with_capacity(trace.len());
    let mut i = 0;
    let markers: [&[u8]; 4] = [b"\"start_us\":", b"\"end_us\":", b"\"t_us\":", b"["];
    'outer: while i < bytes.len() {
        for m in markers {
            if bytes[i..].starts_with(m) {
                out.push_str(std::str::from_utf8(m).unwrap());
                i += m.len();
                if i < bytes.len() && bytes[i].is_ascii_digit() {
                    out.push('0');
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                continue 'outer;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}
