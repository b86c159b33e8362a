"""What both index structures do to a pinned page image."""


def fill_page(data: bytearray, image: bytes) -> None:
    """Overwrite the pinned page *data* with *image*, zeroing the rest so
    stale bytes never alias a valid entry."""
    data[: len(image)] = image
    data[len(image) :] = bytes(len(data) - len(image))
