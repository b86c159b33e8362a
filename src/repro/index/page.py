"""What the B+-tree does to a pinned page image."""


class BPTreeError(Exception):
    """Raised on structural violations."""


def fill_page(data: bytearray, image: bytes) -> None:
    """Overwrite the pinned page *data* with *image*, zeroing the rest so
    stale bytes never alias a valid entry.  An image longer than the page
    is refused: the buffer never grows past the page size."""
    if len(image) > len(data):
        raise BPTreeError(
            f"page image is {len(image)} bytes, the page holds {len(data)}"
        )
    data[: len(image)] = image
    data[len(image) :] = bytes(len(data) - len(image))
