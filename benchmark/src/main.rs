//! See the library crate's documentation (`src/lib.rs`).

fn main() -> std::process::ExitCode {
    isum_benchmark::main()
}
