// Another crate's module sharing a bare name with the caller's
// `Session::send`; the pass is same-crate, so it is never followed.

pub fn send(n: u8) -> Box<u8> {
    Box::new(n)
}
