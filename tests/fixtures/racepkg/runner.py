"""Drives the planted race from real threads (the sanitizer's prey)."""

import threading

from racepkg.board import TallyBoard


def hammer(board: TallyBoard, n_threads: int = 4, n_bumps: int = 500) -> None:
    """Bump ``board.misses`` from *n_threads* concurrent threads."""
    barrier = threading.Barrier(n_threads)

    def spin() -> None:
        barrier.wait(timeout=10)  # start every thread's bumps together
        for _ in range(n_bumps):
            board.bump_miss()

    workers = [threading.Thread(target=spin) for _ in range(n_threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
