//! `servebench`: see `benchmark/README.md`.

use servebench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    servebench::cli::main(std::time::Instant::now())
}
